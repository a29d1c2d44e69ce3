"""Driver-memory rules of the session builder, on faked files (no Spark)."""
import pytest

from repro import session

V1_UNLIMITED = "9223372036854771712\n"
V2, V1 = session.CGROUP_LIMITS


def meminfo(gib: float) -> str:
    return f"MemTotal:       {int(gib * (1 << 20))} kB\nMemFree:        1024 kB\n"


@pytest.fixture
def files(monkeypatch):
    """Path -> contents; a path left out reads as missing."""
    fake: dict[str, str] = {}
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.setattr(session, "_read", fake.get)
    return fake


def gib(mem: str) -> int:
    assert mem.endswith("g")
    return int(mem[:-1])


def test_env_wins(files, monkeypatch):
    files.update({V2: str(4 << 30), session.MEMINFO: meminfo(16)})
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert session._driver_mem() == ("3g", "env")


def test_cgroup_limit_gives_three_quarters(files):
    files.update({V2: f"{8 << 30}\n", session.MEMINFO: meminfo(64)})
    assert session._driver_mem() == ("6g", f"cgroup:{V2}={8 << 30}")


@pytest.mark.parametrize(
    "cgroup",
    [{V2: "max\n"}, {V1: V1_UNLIMITED}, {V2: "max\n", V1: V1_UNLIMITED}, {}],
    ids=["v2_max", "v1_unlimited", "both_unlimited", "missing"],
)
def test_no_cgroup_limit_falls_back_to_meminfo(files, cgroup):
    files.update(cgroup)
    files[session.MEMINFO] = meminfo(16)
    assert session._driver_mem() == ("8g", "meminfo")


def test_cgroup_limit_above_memtotal_is_no_limit(files):
    files.update({V1: str(64 << 30), session.MEMINFO: meminfo(15.7)})
    assert session._driver_mem() == ("7g", "meminfo")


@pytest.mark.parametrize("total", [2, 4, 15.7, 16, 64])
@pytest.mark.parametrize("cgroup", [{}, {V2: "max"}, {V1: V1_UNLIMITED}, {V1: str(12 << 30)}])
def test_never_exceeds_memtotal(files, total, cgroup):
    files.update(cgroup)
    files[session.MEMINFO] = meminfo(total)
    mem, _ = session._driver_mem()
    assert 1 <= gib(mem) <= total


def test_meminfo_half_clamped(files):
    for total, expected in [(2, "2g"), (6, "3g"), (15.7, "7g"), (64, "8g")]:
        files[session.MEMINFO] = meminfo(total)
        assert session._driver_mem() == (expected, "meminfo")


def test_no_meminfo(files):
    assert session._driver_mem() == ("2g", "fallback")

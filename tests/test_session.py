"""The driver heap derivation in ``repro.bench.session``, on given cgroup
and meminfo texts: no file is read and no JVM starts."""
from repro.bench.session import driver_mem

V2, V1 = "/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"
MEMINFO = "MemTotal:       16456384 kB\nMemFree:         1000000 kB\n"
NO_LIMIT = {V2: None, V1: "9223372036854771712\n"}


def test_override_wins():
    assert driver_mem("3g", {V2: "4294967296\n"}, MEMINFO) == ("3g", "env")


def test_real_cgroup_limit_gives_three_quarters():
    assert driver_mem(None, {V2: "4294967296\n", V1: None}, MEMINFO) == (
        "3g", f"cgroup:{V2}=4294967296",
    )
    assert driver_mem(None, {V2: None, V1: "1073741824"}, MEMINFO)[0] == "1g"


def test_no_limit_falls_back_to_half_of_memtotal():
    """cgroup v2's ``max`` and v1's unlimited sentinel are not limits."""
    for limits in (NO_LIMIT, {V2: "max\n", V1: None}, {V2: "", V1: "garbage"}):
        assert driver_mem(None, limits, MEMINFO) == ("7g", "meminfo:MemTotal=16456384kB")


def test_memtotal_half_is_clamped_to_2_to_8_gb():
    assert driver_mem(None, NO_LIMIT, "MemTotal: 2000000 kB\n")[0] == "2g"
    assert driver_mem(None, NO_LIMIT, "MemTotal: 67108864 kB\n")[0] == "8g"


def test_nothing_readable_gives_2g():
    assert driver_mem(None, {V2: None, V1: None}, None) == ("2g", "default")

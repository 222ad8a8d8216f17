"""Table I reproduction benchmark: the XR / edge device catalog."""

from repro.devices.catalog import list_devices, list_edge_servers
from repro.evaluation.tables import table_1


def test_bench_table1_devices(benchmark):
    """Rebuild and render Table I; assert its contents match the paper."""
    table = benchmark(table_1)

    # 7 XR devices + 2 Jetson edge boards, exactly as in the paper.
    assert table.n_rows == 9
    assert len(list_devices()) == 7
    assert len(list_edge_servers()) == 2

    text = table.to_text()
    for expected in (
        "Huawei Mate 40 Pro",
        "OnePlus 8 Pro",
        "Motorola One Macro",
        "Xiaomi Redmi Note 8",
        "Google Glass Enterprise Edition 2",
        "Meta Quest 2",
        "Nvidia Jetson TX2",
        "Nvidia Jetson AGX Xavier",
    ):
        assert expected in text

    print()
    print(text)

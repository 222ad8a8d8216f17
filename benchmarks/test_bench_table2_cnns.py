"""Table II reproduction benchmark: the CNN model zoo."""

from repro.cnn.zoo import get_cnn
from repro.evaluation.tables import table_2


def test_bench_table2_cnns(benchmark):
    """Rebuild and render Table II; assert depths/sizes match the paper."""
    table = benchmark(table_2)

    assert table.n_rows == 11
    assert get_cnn("MobileNetv1_240 Float").depth == 31
    assert get_cnn("NasNet Float").depth == 663
    assert get_cnn("YOLOv3").size_mb == 210.0
    assert get_cnn("YOLOv7").depth_scale == 1.5

    text = table.to_text()
    assert "EfficientNet Quant" in text
    print()
    print(text)

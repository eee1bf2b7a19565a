import json

import numpy as np
import pytest

from came_opt.memory_model import (
    MEMORY_OPTIMIZERS,
    ShapeManifest,
    bundled_manifest,
    load_manifest,
    parse_manifest,
    render_table,
    report,
    scale_manifest,
    state_elements,
)


# ---------------------------------------------------------------------------
# per-shape counts
# ---------------------------------------------------------------------------


def test_came_large_square():
    assert state_elements("came", (1024, 1024)) == 1024 * 1024 + 4096 == 1052672


def test_adam_large_square_and_ratio():
    adam = state_elements("adam", (1024, 1024))
    assert adam == 2097152
    ratio = state_elements("came", (1024, 1024)) / adam
    assert ratio == pytest.approx(0.5020, abs=5e-4)


def test_adafactor_scalar_shape():
    assert state_elements("adafactor", (1, 1)) == 1 + 1  # momentum + full second moment


def test_one_dimensional_counts():
    n = 768
    assert state_elements("adam", (n,)) == 2 * n
    assert state_elements("lamb", (n,)) == 2 * n
    assert state_elements("adafactor", (n,)) == 2 * n
    assert state_elements("sm3", (n,)) == 2 * n
    assert state_elements("came", (n,)) == 3 * n


def test_vector_entry_counts_full_accumulators():
    # an n x 1 or 1 x m entry is a vector, kept unfactored like a 1-D one
    for text in ("x 512 1\n", "x 1 512\n", "x 512\n"):
        rep = report(parse_manifest(text))
        assert rep.totals == {
            "adam": 1024, "lamb": 1024, "adafactor": 1024, "sm3": 1024, "came": 1536
        }


def test_state_elements_validation():
    with pytest.raises(ValueError, match="unknown optimizer"):
        state_elements("sgd", (4, 4))
    with pytest.raises(ValueError):
        state_elements("adam", (2, 2, 2))
    with pytest.raises(ValueError):
        state_elements("adam", (0,))


def test_ordering_for_all_2d_shapes():
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(200):
        dims = (int(rng.integers(2, 300)), int(rng.integers(2, 300)))
        ada = state_elements("adafactor", dims)
        came = state_elements("came", dims)
        adam = state_elements("adam", dims)
        assert ada < came < adam
        assert state_elements("lamb", dims) == adam


def test_came_adam_ratio_window():
    rng = np.random.Generator(np.random.PCG64(32))
    for _ in range(200):
        dims = (int(rng.integers(64, 4096)), int(rng.integers(64, 4096)))
        ratio = state_elements("came", dims) / state_elements("adam", dims)
        assert 0.5 < ratio <= 0.55


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def test_parse_manifest_with_comments():
    man = parse_manifest(
        """
        # layers
        ffn1 1024 4096
        bias 4096   # trailing comment
        """
    )
    assert man.entries == (("ffn1", (1024, 4096)), ("bias", (4096,)))
    assert man.total_parameters() == 1024 * 4096 + 4096


def test_parse_manifest_errors():
    with pytest.raises(ValueError, match="expected 'name dim"):
        parse_manifest("onlyname\n")
    with pytest.raises(ValueError, match="bad dimension"):
        parse_manifest("w one 2\n")
    with pytest.raises(ValueError, match="at least one entry"):
        parse_manifest("# nothing here\n")
    with pytest.raises(ValueError, match="invalid dims"):
        parse_manifest("w 0 4\n")


def test_load_manifest_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("w 8 4\nb 4\n")
    man = load_manifest(str(path), element_width_bytes=8)
    assert man.entries == (("w", (8, 4)), ("b", (4,)))
    assert man.element_width_bytes == 8


def test_bundled_manifest_shape():
    man = bundled_manifest()
    assert man.total_parameters() == 334_092_288
    names = [name for name, _ in man.entries]
    assert "token_embeddings" in names
    assert sum(1 for n in names if n.startswith("layer")) == 24 * 16
    with pytest.raises(ValueError, match="unknown bundled manifest"):
        bundled_manifest("gpt-17")


def test_scale_manifest():
    man = parse_manifest("w 8 4\nb 4\n")
    scaled = scale_manifest(man, 3)
    assert scaled.entries == (("w", (24, 12)), ("b", (12,)))
    with pytest.raises(ValueError):
        scale_manifest(man, 0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_single_scalar_entry_adam_baseline():
    man = ShapeManifest(entries=(("p", (1, 1)),))
    rep = report(man, baseline="adam")
    assert rep.totals["adam"] == 2
    assert rep.ratios["adam"] == 1.0


def test_report_totals_match_breakdown_and_bytes():
    man = parse_manifest("w 32 16\nb 16\nv 16 1\n", element_width_bytes=4)
    rep = report(man, baseline="adam")
    for opt in MEMORY_OPTIMIZERS:
        assert rep.totals[opt] == sum(rep.breakdown[opt].values())
        assert rep.total_bytes[opt] == rep.totals[opt] * 4
    payload = json.loads(rep.to_json())
    assert payload["totals"] == rep.totals


def test_report_is_permutation_invariant():
    a = parse_manifest("w 32 16\nb 16\nv 16 1\n")
    b = parse_manifest("v 16 1\nw 32 16\nb 16\n")
    assert report(a).totals == report(b).totals


def test_report_rejects_unknown_baseline():
    man = ShapeManifest(entries=(("p", (4, 4)),))
    with pytest.raises(ValueError, match="unknown baseline"):
        report(man, baseline="rmsprop")


def test_scaling_trend():
    # baseline memory grows ~k^2 while the factored overhead grows ~k
    man = parse_manifest("w 128 256\n")
    base = report(man)
    big = report(scale_manifest(man, 8))
    adam_growth = big.totals["adam"] / base.totals["adam"]
    overhead_base = base.totals["came"] - base.totals["adafactor"]
    overhead_big = big.totals["came"] - big.totals["adafactor"]
    assert adam_growth == 64.0
    assert overhead_big / overhead_base == 8.0


def test_render_table_lists_all_optimizers():
    man = bundled_manifest()
    table = render_table(report(man))
    for opt in MEMORY_OPTIMIZERS:
        assert opt in table
    assert "vs adam" in table

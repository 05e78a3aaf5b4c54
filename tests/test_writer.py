"""The streaming CLI writer against the whole-document writer it replaced."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from wallbounce import PacketParams, cli
from wallbounce.oracle import GridSpec


def reference_write(cfg, columns, meta, stream):
    """The writer as it was: csv.writer over every value, or one json.dumps(indent=2)."""
    if cfg.format == "json":
        names = tuple(columns)
        payload = {
            "schema_version": cli.SCHEMA_VERSION,
            "metadata": meta,
            "records": [dict(zip(names, row)) for row in zip(*columns.values())],
        }
        stream.write(json.dumps(payload, indent=2))
        stream.write("\n")
        return
    for key in ("command", "schema_version"):
        stream.write(f"# {key}={meta[key]}\r\n")
    for section in ("params", "grid"):
        if section in meta:
            parts = ",".join(f"{k}={cli._fmt_value(v)}" for k, v in meta[section].items())
            stream.write(f"# {section}: {parts}\r\n")
    stream.write(f"# units: {meta['units']['system']}\r\n")
    writer = csv.writer(stream, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(zip(*(map(cli._fmt_value, values) for values in columns.values())))


def whole_columns(blocks):
    """Join blocks into whole-run columns; a single value fills its block's rows."""
    columns = {}
    for block in blocks:
        n = next(len(v) for v in block.values() if isinstance(v, (list, tuple, np.ndarray)))
        for name, values in block.items():
            if isinstance(values, np.ndarray):
                values = values.tolist()
            elif not isinstance(values, (list, tuple)):
                values = [values] * n
            columns.setdefault(name, []).extend(values)
    return columns


def _config(fmt):
    params = PacketParams(x0=-10.0, p0=5.0, alpha=1.0)
    return cli.RunConfig("density", fmt, "-", None, None, "bouncer", params, 0.0, 4.0, 9)


def both_ways(fmt, blocks, meta):
    cfg = _config(fmt)
    new, old = io.StringIO(), io.StringIO()
    cli._write(cfg, iter(blocks), meta, new)
    reference_write(cfg, whole_columns(blocks), meta, old)
    return new.getvalue(), old.getvalue()


ODD = [
    None, True, False, 0, -7, 10**20, -0.0, 1e-300, float("nan"), float("inf"), float("-inf"),
    "plain", "comma, inside", 'quote " inside', "line\nbreak", "cr\rreturn", "", "ünïcødé ∂ψ",
    1.5, 0.1,
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_synthetic_columns_match_reference(fmt):
    meta = cli._metadata(_config(fmt), GridSpec(-3.0, 5))
    grid = np.linspace(-1.0, 0.0, len(ODD))
    floats = np.resize([0.5, -0.0, 1e-300, np.nan, np.inf, -np.inf, 2.0 / 3.0], len(ODD))
    blocks = [
        # the grid column is the same array in every block, as in density
        {"t": 0.25, 'odd "name", 100%': ODD, "x": grid, "f": floats, "n": list(range(len(ODD)))},
        {"t": -0.0, 'odd "name", 100%': ODD[::-1], "x": grid, "f": floats[::-1].copy(),
         "n": tuple(range(len(ODD)))},
        {"t": "late", 'odd "name", 100%': [], "x": [], "f": [], "n": []},
        {"t": None, 'odd "name", 100%': [1.0, 2.0], "x": grid[:2], "f": [3.0, 4.0], "n": [1, 2]},
    ]
    new, old = both_ways(fmt, blocks, meta)
    assert new == old


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_only_blocks_match_reference(fmt):
    meta = cli._metadata(_config(fmt), None)
    x = np.linspace(-2.0, 0.0, 7)
    blocks = [{"t": t, "x": x, "density": np.abs(np.sin(3.0 * x + t)) ** 2} for t in (0.0, 0.5, 1e-17)]
    new, old = both_ways(fmt, blocks, meta)
    assert new == old


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_long_blocks_are_written_in_bounded_pieces(fmt):
    class Recording(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    sizes = []
    cfg = _config(fmt)
    meta = cli._metadata(cfg, None)
    x = np.linspace(-30.0, 0.0, 10 * cli._ROWS_PER_WRITE + 3)
    blocks = [{"t": t, "x": x, "density": np.abs(np.sin(3.0 * x + t)) ** 2} for t in (0.0, 0.5)]
    new, old = Recording(), io.StringIO()
    cli._write(cfg, iter(blocks), meta, new)
    reference_write(cfg, whole_columns(blocks), meta, old)
    assert new.getvalue() == old.getvalue()
    # a density record is under 128 characters in either format, and one
    # block of them is over three times this bound
    assert max(sizes) <= 128 * cli._ROWS_PER_WRITE


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_no_records_match_reference(fmt):
    meta = cli._metadata(_config(fmt), None)
    new, old = both_ways(fmt, [{"id": [], "passed": [], "detail": []}], meta)
    assert new == old


# moments and autocorr at five times, t_c = 2 among them, to keep the run short
_REQUESTS = (
    [["density", "--kind", k] for k in ("free", "free-node", "bouncer", "wall")]
    + [["moments", "--kind", k, "--nt", "5"] for k in ("free", "free-node", "bouncer", "wall")]
    + [["autocorr", "--kind", k, "--nt", "5"] for k in ("free", "bouncer")]
    + [["validate", "--criteria", "C03,C09,C10"]]
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _REQUESTS, ids=lambda argv: "-".join(argv[::2][:2]))
def test_commands_match_reference(tmp_path, monkeypatch, argv, fmt):
    streamed, reference = tmp_path / "out", io.StringIO()
    write = cli._write

    def write_both_ways(cfg, blocks, meta, stream):
        blocks = list(blocks)
        write(cfg, iter(blocks), meta, stream)
        reference_write(cfg, whole_columns(blocks), meta, reference)

    monkeypatch.setattr(cli, "_write", write_both_ways)
    assert cli.main(argv + ["--format", fmt, "--out", str(streamed)]) == 0
    assert streamed.read_bytes() == reference.getvalue().encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_memory_does_not_grow_with_nt(tmp_path, fmt):
    def peak(nt):
        tracemalloc.start()
        try:
            argv = ["density", "--nt", str(nt), "--xmin", "-30", "--nx", "1001", "--format", fmt]
            assert cli.main(argv + ["--out", str(tmp_path / f"{nt}.{fmt}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # holding the whole document took 6x (CSV) and 10x (JSON) here
    assert peak(40) < 2.0 * peak(4)

import hashlib
import io
import json
import shutil
import tempfile
from collections import Counter, namedtuple
from contextlib import redirect_stderr, redirect_stdout
from datetime import date
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import LEDGER_WITH_DERIVED_SECTIONS, make_columns
from kladia import fixedpoint as fp
from kladia import ledger as lg
from kladia import oracle_protocol as op
from kladia import reporting
from kladia.canonical import canonical_bytes
from kladia.cli import main
from kladia.debt_index import BaselineRef
from kladia.policy import PolicyParams
from kladia.weo_ingest import ALL_BLOCS, DEBT_SERIES, GDP_SERIES, WeoVintage

HASH = "ab" * 32


Result = namedtuple("Result", "exit_code output exception")


class Runner:
    """Runs `kld` in this process. `output` holds stdout and stderr in one
    buffer, as a shell shows them; `exception` is the SystemExit, or an
    exception that escaped `main`, which a shell would see as a traceback."""

    def invoke(self, main, args):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out):
            try:
                main(args)
            except SystemExit as exc:
                return Result(exc.code, out.getvalue(), exc)
            except Exception as exc:
                return Result(1, out.getvalue(), exc)
        return Result(0, out.getvalue(), None)


@pytest.fixture
def runner():
    return Runner()


def write_snapshot(path, vintage_id, debt="150", gdp="2000"):
    lines = ["bloc,series,value,vintage"]
    for bloc in ALL_BLOCS:
        lines.append(f"{bloc.value},{DEBT_SERIES},{debt},{vintage_id}")
        lines.append(f"{bloc.value},{GDP_SERIES},{gdp},{vintage_id}")
    path.write_text("\n".join(lines) + "\n")


def write_baseline(path, bdi_ref="100.000000000", lam="1.000000000"):
    path.write_text(json.dumps({
        "bdi_ref": bdi_ref,
        "lambda": lam,
        "vintage_id": "2025-October",
        "publication_date": "2025-10-15",
        "dataset_hash": HASH,
    }))


def write_submission(path, operator, debt="150", gdp="2000",
                     bdi="150.000000000", x="1.500000000", g="0.333333333"):
    path.write_text(json.dumps({
        "operator_id": operator,
        "debt_ratios": {b.value: debt for b in ALL_BLOCS},
        "nominal_gdps": {b.value: gdp for b in ALL_BLOCS},
        "bdi": bdi,
        "x_norm": x,
        "g": g,
        "vintage_id": "2026-October",
        "dataset_hash": HASH,
    }))


# --- index -------------------------------------------------------------------

def test_index_at_baseline_is_neutral(runner, tmp_path):
    snap = tmp_path / "snap.csv"
    base = tmp_path / "baseline.json"
    write_snapshot(snap, "2026-October", debt="100")
    write_baseline(base)
    result = runner.invoke(main, [
        "index", str(snap), "--baseline-file", str(base),
        "--vintage", "2026-October", "--publication-date", "2026-10-14",
    ])
    assert result.exit_code == 0, result.output
    assert "g\t0.000000000" in result.output
    assert "x_norm\t1.000000000" in result.output


def test_index_fifty_percent_excess(runner, tmp_path):
    # BDI 150 over reference 100: X=1.5, x=0.5, g = 0.5/1.5 = 1/3
    snap = tmp_path / "snap.csv"
    base = tmp_path / "baseline.json"
    write_snapshot(snap, "2026-October", debt="150")
    write_baseline(base)
    result = runner.invoke(main, [
        "index", str(snap), "--baseline-file", str(base),
        "--vintage", "2026-October", "--publication-date", "2026-10-14",
        "--fmt", "canonical",
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert result.output.encode() == canonical_bytes(payload) + b"\n"
    assert payload["bdi"] == "150.000000000"
    assert payload["g"] == "0.333333333"
    assert sum(int(w.replace(".", "")) for w in payload["weights"].values()) \
        == 10 ** 9


def test_index_malformed_snapshot_exit_2(runner, tmp_path):
    snap = tmp_path / "snap.csv"
    base = tmp_path / "baseline.json"
    snap.write_text("not,a,snapshot\n1,2,3\n")
    write_baseline(base)
    result = runner.invoke(main, [
        "index", str(snap), "--baseline-file", str(base),
        "--vintage", "2026-October", "--publication-date", "2026-10-14",
    ])
    assert result.exit_code == 2


def test_index_oversized_value_exit_2(runner, tmp_path):
    # 20 integer digits: past the exact parser, too long for Decimal's context
    snap = tmp_path / "snap.csv"
    base = tmp_path / "baseline.json"
    write_snapshot(snap, "2026-October")
    lines = snap.read_text().splitlines()
    us_gdp = lines.index(f"US,{GDP_SERIES},2000,2026-October")
    value = "1" + "0" * 19
    lines[us_gdp] = f"US,{GDP_SERIES},{value},2026-October"
    snap.write_text("\n".join(lines) + "\n")
    write_baseline(base)
    result = runner.invoke(main, [
        "index", str(snap), "--baseline-file", str(base),
        "--vintage", "2026-October", "--publication-date", "2026-10-14",
    ])
    assert result.exit_code == 2
    assert result.output == (f"error: MalformedFile: line {us_gdp + 1}: "
                             f"bad value {value!r}\n")


def test_index_missing_bloc_without_prior_exit_2(runner, tmp_path):
    snap = tmp_path / "snap.csv"
    base = tmp_path / "baseline.json"
    lines = ["bloc,series,value,vintage"]
    for bloc in list(ALL_BLOCS)[:-1]:  # drop KR
        lines.append(f"{bloc.value},{DEBT_SERIES},100,2026-October")
        lines.append(f"{bloc.value},{GDP_SERIES},2000,2026-October")
    snap.write_text("\n".join(lines) + "\n")
    write_baseline(base)
    result = runner.invoke(main, [
        "index", str(snap), "--baseline-file", str(base),
        "--vintage", "2026-October", "--publication-date", "2026-10-14",
    ])
    assert result.exit_code == 2
    assert result.output == (
        "error: NoPriorValue: missing blocs ['KR'] and no --last-confirmed file\n")


# --- cycle / verify ----------------------------------------------------------

def run_cycle(runner, tmp_path, tag="a"):
    state_dir = tmp_path / f"state-{tag}"
    subs = tmp_path / f"subs-{tag}"
    subs.mkdir()
    base = tmp_path / f"baseline-{tag}.json"
    write_baseline(base)
    for op in ("op-1", "op-2", "op-3"):
        write_submission(subs / f"{op}.json", op)
    result = runner.invoke(main, [
        "cycle", "--state-dir", str(state_dir), "--submissions-dir", str(subs),
        "--baseline-file", str(base), "--year", "2026",
    ])
    return result, state_dir, base


def cycle_again(runner, tmp_path, state_dir, base, year):
    """`kld cycle --year <year>` on `run_cycle`'s state dir and submissions."""
    return runner.invoke(main, [
        "cycle", "--state-dir", str(state_dir), "--submissions-dir",
        str(tmp_path / "subs-a"), "--baseline-file", str(base), "--year", str(year),
    ])


def verify_year(runner, state_dir, base, year):
    return runner.invoke(main, [
        "verify", str(state_dir / f"report-{year}.kldr"),
        str(state_dir / f"report-{year}.commit"),
        "--event-log", str(state_dir / "ledger.json"), "--baseline-file", str(base),
    ])


def cycle_years(state_dir):
    """The year of each cycle event in the state dir's journal."""
    log = json.loads((state_dir / "ledger.json").read_text())["event_log"]
    return [e["inputs"]["year"] for e in log if e["op"] in ("begin_cycle", "carry_cycle")]


def test_cycle_produces_artifacts(runner, tmp_path, monkeypatch):
    written = []
    for method in ("write_text", "write_bytes"):
        def recording(self, data, _write=getattr(Path, method)):
            written.append(self.name)
            return _write(self, data)
        monkeypatch.setattr(Path, method, recording)
    result, state_dir, _ = run_cycle(runner, tmp_path)
    assert result.exit_code == 0, result.output
    assert result.output.startswith("cycle 2026: Executed, g=0.333333333, ")
    # the journal is the one record of the settled year, and is written last
    assert written[-3:] == ["report-2026.kldr", "report-2026.commit", "ledger.json"]
    assert sorted(f.name for f in state_dir.iterdir()) == [
        "ledger.json", "report-2026.commit", "report-2026.kldr"]
    assert cycle_years(state_dir) == [2026]


# sha256 of each file `kld cycle --year 2026` leaves in a fresh state dir
CYCLE_FILES = {
    "ledger.json":
        "2c620aa4548572c4a6c7aecaba71d10e77fed67f91c3813ef3bb5378e14fc892",
    "report-2026.commit":
        "ba92e94158bf98ee46d7fc67972a274fef4e7a0e4afb5cedc6047f7f347cc403",
    "report-2026.kldr":
        "bb10ed94e11ec28b08849379d8ca4e5b24ed67700dc822aef52d4e0fa48989d6",
}
CYCLE_OUTPUT = (
    "cycle 2026: Executed, g=0.333333333, state_hash="
    "668f54b8951e4993223f0d0a46c6158d62117e86407e78701c2bd5dd506f6e42\n"
)


def test_cycle_artifacts_golden(runner, tmp_path):
    result, state_dir, _ = run_cycle(runner, tmp_path)
    assert result.exit_code == 0, result.output
    assert result.output == CYCLE_OUTPUT
    files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
             for f in state_dir.iterdir()}
    assert files == CYCLE_FILES


def test_cycle_reads_bloc_codes_in_any_order(runner, tmp_path):
    # a payload with a distinct level per bloc, its codes listed sorted in one
    # submissions dir and reversed in another: both cycles write the same bytes
    base = tmp_path / "baseline.json"
    write_baseline(base)
    baseline = BaselineRef(fp.from_str("100"),
                           WeoVintage("2025-October", date(2025, 10, 15), HASH), fp.ONE)
    payload = op.build_payload(*make_columns(), baseline,
                               WeoVintage("2026-October", date(2026, 10, 15), HASH))
    written = {}
    for order in ("sorted", "reversed"):
        view = payload.canonical()
        if order == "reversed":
            for key in ("debt_ratios", "nominal_gdps"):
                view[key] = dict(reversed(view[key].items()))
        subs, state_dir = tmp_path / f"subs-{order}", tmp_path / f"state-{order}"
        subs.mkdir()
        for operator in ("op-1", "op-2", "op-3"):
            (subs / f"{operator}.json").write_text(
                json.dumps({"operator_id": operator, **view}))
        result = runner.invoke(main, [
            "cycle", "--state-dir", str(state_dir), "--submissions-dir", str(subs),
            "--baseline-file", str(base), "--year", "2026"])
        assert result.exit_code == 0, result.output
        written[order] = {f.name: f.read_bytes() for f in state_dir.iterdir()}
    assert written["sorted"] == written["reversed"]
    assert sorted(written["sorted"]) == [
        "ledger.json", "report-2026.commit", "report-2026.kldr"]
    raw_inputs = json.loads(written["reversed"]["report-2026.kldr"])["raw_inputs"]
    assert raw_inputs["JP"] == {"debt_ratio": "250.000000000",
                                "nominal_gdp": "4200.000000000"}


def test_cycle_replay_is_bit_identical(runner, tmp_path):
    r1, dir1, _ = run_cycle(runner, tmp_path, "a")
    r2, dir2, _ = run_cycle(runner, tmp_path, "b")
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (dir1 / "report-2026.kldr").read_bytes() == \
        (dir2 / "report-2026.kldr").read_bytes()
    assert (dir1 / "report-2026.commit").read_text() == \
        (dir2 / "report-2026.commit").read_text()
    assert r1.output == r2.output  # includes the ledger state hash


def test_verify_clean_report_exit_0(runner, tmp_path):
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0
    result = runner.invoke(main, [
        "verify", str(state_dir / "report-2026.kldr"),
        str(state_dir / "report-2026.commit"),
        "--event-log", str(state_dir / "ledger.json"),
        "--baseline-file", str(base),
    ])
    assert result.exit_code == 0, result.output
    assert "verified: clean" in result.output


def test_verify_uses_the_baseline_lambda(runner, tmp_path):
    # BDI 150 over reference 100 under lambda 2: g = 0.5 / (1 + 2 * 0.5) =
    # 0.25, where lambda 1 would give 1/3; lambda comes from the baseline
    state_dir = tmp_path / "state"
    subs = tmp_path / "subs"
    subs.mkdir()
    base = tmp_path / "baseline.json"
    write_baseline(base, lam="2.0")
    for op in ("op-1", "op-2", "op-3"):
        write_submission(subs / f"{op}.json", op, g="0.250000000")
    result = runner.invoke(main, [
        "cycle", "--state-dir", str(state_dir), "--submissions-dir", str(subs),
        "--baseline-file", str(base), "--year", "2026",
    ])
    assert result.exit_code == 0, result.output
    assert "g=0.250000000" in result.output
    # rendered from the baseline's value, whatever its spelling in the file
    report = json.loads((state_dir / "report-2026.kldr").read_bytes())
    assert report["lambda"] == "2.000000000"
    result = runner.invoke(main, [
        "verify", str(state_dir / "report-2026.kldr"),
        str(state_dir / "report-2026.commit"),
        "--event-log", str(state_dir / "ledger.json"),
        "--baseline-file", str(base),
    ])
    assert result.exit_code == 0, result.output
    assert "verified: clean" in result.output


def _verify_recommitted_edit(runner, tmp_path, edits):
    # the edited report is re-committed, so only the recomputation can fail
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0, result.output
    report_file = state_dir / "report-2026.kldr"
    data = canonical_bytes({**json.loads(report_file.read_bytes()), **edits})
    assert data != report_file.read_bytes()
    report_file.write_bytes(data)
    commit_file = state_dir / "report-2026.commit"
    commit = json.loads(commit_file.read_text())
    commit["content_hash"] = hashlib.sha256(data).hexdigest()
    commit_file.write_text(json.dumps(commit))
    return runner.invoke(main, [
        "verify", str(report_file), str(commit_file),
        "--event-log", str(state_dir / "ledger.json"),
        "--baseline-file", str(base),
    ])


def test_verify_flags_an_edited_report_lambda(runner, tmp_path):
    result = _verify_recommitted_edit(runner, tmp_path, {"lambda": "2.000000000"})
    assert result.exit_code == 1
    assert result.output == "verification failed: RecomputeMismatch\n"


@pytest.mark.parametrize("edits", [
    {"vintage_id": "2027-October"},
    {"dataset_hash": "cd" * 32},
    {"lambda": "1"},
], ids=["vintage-id", "dataset-hash", "lambda-spelled-1"])
def test_verify_flags_an_index_field_that_leaves_the_median(runner, tmp_path, edits):
    # the report's vintage and dataset hash repeat its median's, and its
    # lambda is the baseline's in canonical form
    result = _verify_recommitted_edit(runner, tmp_path, edits)
    assert result.exit_code == 1
    assert result.output == "verification failed: RecomputeMismatch\n"


def test_verify_flags_an_edited_report_bdi_ref(runner, tmp_path):
    # bdi, x_norm and g still recompute (under the baseline's bdi_ref), so
    # only the bdi_ref check itself can fail
    result = _verify_recommitted_edit(runner, tmp_path,
                                      {"bdi_ref": "90.000000000"})
    assert result.exit_code == 1
    assert result.output == "verification failed: RecomputeMismatch\n"


def test_verify_flags_a_report_stripped_of_its_index_fields(runner, tmp_path):
    result = _verify_recommitted_edit(runner, tmp_path, {
        "bdi": None, "x_norm": None, "raw_inputs": {}, "weights": {}})
    assert result.exit_code == 1
    assert result.output == "verification failed: RecomputeMismatch\n"


def test_verify_tampered_report_exit_1(runner, tmp_path):
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0
    report_file = state_dir / "report-2026.kldr"
    data = report_file.read_bytes().replace(b"0.333333333", b"0.222222222", 1)
    report_file.write_bytes(data)
    result = runner.invoke(main, [
        "verify", str(report_file), str(state_dir / "report-2026.commit"),
        "--event-log", str(state_dir / "ledger.json"),
        "--baseline-file", str(base),
    ])
    assert result.exit_code == 1
    assert "HashMismatch" in result.output or "RecomputeMismatch" in result.output


@pytest.mark.parametrize("edit, name", [
    ({"ledger_anchor": "2"}, "ledger_anchor"),
    ({"ledger_anchor": None}, "ledger_anchor"),
    ({"ledger_anchor": 0}, "ledger_anchor"),
    ({"ledger_anchor": -1}, "ledger_anchor"),
    ({"ledger_anchor": True}, "ledger_anchor"),
    ("ledger_anchor", "ledger_anchor"),
    ({"content_hash": "0" * 63}, "content_hash"),
    ({"note": "x"}, "note"),
], ids=["anchor-string", "anchor-null", "anchor-0", "anchor-negative", "anchor-true",
        "anchor-missing", "short-hash", "extra-key"])
def test_verify_reads_the_commit_file_strictly_exit_2(runner, tmp_path, edit, name):
    # exactly the three fields `kld cycle` writes, each of its own type
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0
    commit_file = state_dir / "report-2026.commit"
    commit = json.loads(commit_file.read_text())
    if isinstance(edit, str):
        del commit[edit]
    else:
        commit.update(edit)
    commit_file.write_text(json.dumps(commit))
    result = verify_year(runner, state_dir, base, 2026)
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: MalformedFile: report-2026.commit: ")
    assert name in lines[0]


@pytest.mark.parametrize("option", ["--event-log", "--baseline-file"])
def test_verify_requires_both_inputs_exit_2(runner, tmp_path, option):
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0
    args = ["verify", str(state_dir / "report-2026.kldr"),
            str(state_dir / "report-2026.commit"),
            "--event-log", str(state_dir / "ledger.json"),
            "--baseline-file", str(base)]
    i = args.index(option)
    result = runner.invoke(main, args[:i] + args[i + 2:])
    assert result.exit_code == 2
    assert f"the following arguments are required: {option}" in result.output


def test_verify_missing_event_log_exit_2(runner, tmp_path, monkeypatch):
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0

    def verify(*args, **kwargs):
        raise AssertionError("verified although the event log is missing")

    monkeypatch.setattr(reporting, "verify", verify)
    result = runner.invoke(main, [
        "verify", str(state_dir / "report-2026.kldr"),
        str(state_dir / "report-2026.commit"),
        "--event-log", str(state_dir / "no-such-ledger.json"),
        "--baseline-file", str(base),
    ])
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: FileNotFoundError")


def test_second_cycle_is_journaled_and_verifies(runner, tmp_path):
    # the prior confirmed g a cycle records is pinned in
    # tests/test_oracle_protocol.py::test_settle_cycle_executes_a_clean_window
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0, result.output
    result = cycle_again(runner, tmp_path, state_dir, base, 2027)
    assert result.exit_code == 0, result.output
    assert cycle_years(state_dir) == [2026, 2027]
    for year in (2026, 2027):
        result = verify_year(runner, state_dir, base, year)
        assert result.exit_code == 0, result.output


def test_cycle_runs_under_the_parameters_in_force(runner, tmp_path):
    # `run_cycle`'s state dir, its journal replaced by one whose 2026
    # begin_cycle logged governed coefficients: the 2027 cycle logs the same
    # ones, not the defaults
    governed = PolicyParams(alpha_i=fp.from_str("0.04"),
                            r_base=fp.from_str("0.002"))
    assert governed != PolicyParams()
    state = lg.begin_cycle(lg.genesis(), governed, fp.from_str("0.1"), 2026)
    _, state_dir, base = run_cycle(runner, tmp_path)
    (state_dir / "ledger.json").write_text(json.dumps(lg.to_json_dict(state)))
    result = cycle_again(runner, tmp_path, state_dir, base, 2027)
    assert result.exit_code == 0, result.output
    log = json.loads((state_dir / "ledger.json").read_text())["event_log"]
    assert [e["inputs"]["coefficients"] for e in log if e["op"] == "begin_cycle"] \
        == [list(vars(governed).values())] * 2


def test_cycle_reads_each_submission_once(runner, tmp_path, monkeypatch):
    reads = Counter()
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads[self.name] += 1
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    result, _, _ = run_cycle(runner, tmp_path)
    assert result.exit_code == 0, result.output
    assert [reads[f"{op}.json"] for op in ("op-1", "op-2", "op-3")] == [1, 1, 1]


def test_cycle_with_too_few_approvals_exit_1(runner, tmp_path):
    state_dir = tmp_path / "state"
    result = runner.invoke(main, _verb_args("cycle", tmp_path, _baseline(tmp_path))
                           + ["--approvals", "exec-1,exec-2,exec-3,exec-4"])
    assert result.exit_code == 1
    assert result.output.startswith("error: InsufficientApprovals: ")
    assert list(state_dir.iterdir()) == []


def test_cycle_with_other_approvals_prints_the_same_line(runner, tmp_path):
    result = runner.invoke(main, _verb_args("cycle", tmp_path, _baseline(tmp_path))
                           + ["--approvals", ",".join(f"exec-{i}" for i in range(4, 9))])
    assert result.exit_code == 0, result.output
    assert result.output == CYCLE_OUTPUT


def test_cycle_refuses_settled_year(runner, tmp_path):
    # the journal alone says the year is settled: its report files are gone
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0, result.output
    ledger_before = (state_dir / "ledger.json").read_bytes()
    for report_file in state_dir.glob("report-2026.*"):
        report_file.unlink()
    result = cycle_again(runner, tmp_path, state_dir, base, 2026)
    assert result.exit_code == 1
    assert result.output == (
        "error: KladiaError: year 2026 is already settled, or a later one is\n")
    assert (state_dir / "ledger.json").read_bytes() == ledger_before
    assert sorted(f.name for f in state_dir.iterdir()) == ["ledger.json"]


@pytest.mark.parametrize("failing", [
    "report-2026.kldr", "report-2026.commit", "ledger.json",
])
def test_cycle_rerun_after_a_failed_write_settles_the_year_once(
        runner, tmp_path, monkeypatch, failing):
    for method in ("write_text", "write_bytes"):
        def failing_write(self, data, _write=getattr(Path, method)):
            if self.name == failing:
                raise OSError(f"injected failure writing {failing}")
            return _write(self, data)
        monkeypatch.setattr(Path, method, failing_write)
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 2
    assert result.output == (
        f"error: OSError: injected failure writing {failing}\n")
    assert not (state_dir / "ledger.json").exists()
    monkeypatch.undo()
    result = cycle_again(runner, tmp_path, state_dir, base, 2026)
    assert result.exit_code == 0, result.output
    assert result.output == CYCLE_OUTPUT
    log = json.loads((state_dir / "ledger.json").read_text())["event_log"]
    assert [e["op"] for e in log] == ["genesis", "begin_cycle"]
    assert cycle_years(state_dir) == [2026]
    result = verify_year(runner, state_dir, base, 2026)
    assert result.exit_code == 0, result.output


def cycle_on_locked_dir(runner, tmp_path):
    state_dir = tmp_path / "locked"
    state_dir.mkdir()
    (state_dir / ".lock").write_text("held")
    subs = tmp_path / "subs"
    subs.mkdir()
    write_submission(subs / "op-1.json", "op-1")
    base = tmp_path / "baseline.json"
    write_baseline(base)
    result = runner.invoke(main, [
        "cycle", "--state-dir", str(state_dir), "--submissions-dir", str(subs),
        "--baseline-file", str(base), "--year", "2026",
    ])
    assert result.exit_code == 1
    assert "locked" in result.output
    assert (state_dir / ".lock").read_text() == "held"
    assert not (state_dir / "ledger.json").exists()


def test_cycle_respects_lock(runner, tmp_path):
    cycle_on_locked_dir(runner, tmp_path)


def test_cycle_lock_is_atomic(runner, tmp_path, monkeypatch):
    # another process may take the lock between a check and the write;
    # model that by hiding the held lock from every existence check
    exists = Path.exists
    monkeypatch.setattr(
        Path, "exists", lambda self: self.name != ".lock" and exists(self)
    )
    cycle_on_locked_dir(runner, tmp_path)


# --- state -------------------------------------------------------------------

def test_state_prints_snapshot_and_hash(runner, tmp_path):
    result, state_dir, _ = run_cycle(runner, tmp_path)
    assert result.exit_code == 0
    result = runner.invoke(main, ["state", "--state-dir", str(state_dir)])
    assert result.exit_code == 0, result.output
    assert "state_hash\t" in result.output
    snapshot = json.loads(result.output.rsplit("state_hash", 1)[0])
    assert "circulating" in snapshot


# `kld verify --event-log` reads only a file that is exactly {"event_log": [...]}
NOT_AN_EVENT_LOG_FILE = 'error: MalformedFile: ledger.json: not {"event_log": [...]}\n'


def test_state_rejects_tampered_ledger_exit_2(runner, tmp_path):
    # the same run's ledger.json in the layout that stored derived sections
    # beside the event log: there is no reader for it
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0
    ledger_file = state_dir / "ledger.json"
    written = json.loads(LEDGER_WITH_DERIVED_SECTIONS.read_text())
    assert written["event_log"] == json.loads(ledger_file.read_text())["event_log"]
    ledger_file.write_bytes(LEDGER_WITH_DERIVED_SECTIONS.read_bytes())
    for args in (["state", "--state-dir", str(state_dir)],
                 ["cycle", "--state-dir", str(state_dir), "--submissions-dir",
                  str(tmp_path / "subs-a"), "--baseline-file", str(base),
                  "--year", "2027"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output == \
            "error: MalformedFile: ledger: not what its event log replays to\n"
    assert not (state_dir / "report-2027.kldr").exists()
    result = runner.invoke(main, [
        "verify", str(state_dir / "report-2026.kldr"),
        str(state_dir / "report-2026.commit"),
        "--event-log", str(ledger_file), "--baseline-file", str(base),
    ])
    assert result.exit_code == 2
    assert result.output == NOT_AN_EVENT_LOG_FILE


def test_state_ledger_is_a_directory_exit_2(runner, tmp_path):
    state_dir = tmp_path / "state"
    (state_dir / "ledger.json").mkdir(parents=True)
    result = runner.invoke(main, ["state", "--state-dir", str(state_dir)])
    assert result.exit_code == 2
    assert result.output.startswith("error: IsADirectoryError: ")
    assert result.output.count("error:") == 1 and result.output.count("\n") == 1


def _event_at(data, op):
    return next(e for e in data["event_log"] if e["op"] == op)


def _raise_g(data, before):
    _event_at(data, "begin_cycle")["inputs"]["g"] += 10 ** 8


def _delete_release(data, before):
    data["event_log"].remove(_event_at(data, "release_escrow"))


def _swap_release(data, before):
    events = data["event_log"]
    i = events.index(_event_at(data, "release_escrow"))
    events[i], events[i + 1] = events[i + 1], events[i]


def _release_over_cap(data, before):
    event = _event_at(data, "release_escrow")
    over = before.annual_factors.escrow_cap + 1
    event["inputs"] = {"requested": over, "released": over}
    event["state_hash"] = lg._apply_release_escrow(before.clone(),
                                                   event["inputs"]).state_hash()


def _list_inputs(data, before):
    event = _event_at(data, "release_escrow")
    event["inputs"] = list(event["inputs"].values())


@pytest.mark.parametrize("tamper", [
    _raise_g, _delete_release, _swap_release, _release_over_cap, _list_inputs,
])
def test_unreplayable_ledger_exit_2(runner, tmp_path, tamper):
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0
    ledger_file = state_dir / "ledger.json"
    before = lg.from_json_dict(json.loads(ledger_file.read_text()))
    state, _ = lg.release_escrow(before, 10 ** 9, [f"escrow-{i}" for i in range(1, 6)])
    state, _ = lg.advance_month(state, 10 ** 9)
    data = json.loads(json.dumps(lg.to_json_dict(state)))
    tamper(data, before)
    ledger_file.write_text(json.dumps(data))
    for args in (["state", "--state-dir", str(state_dir)],
                 ["cycle", "--state-dir", str(state_dir), "--submissions-dir",
                  str(tmp_path / "subs-a"), "--baseline-file", str(base),
                  "--year", "2027"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        errors = [ln for ln in result.output.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: MalformedFile: event ")
    assert not (state_dir / "report-2027.kldr").exists()


def test_malformed_ledger_file_fails_cleanly(runner, tmp_path):
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0
    ledger_file = state_dir / "ledger.json"
    data = json.loads(ledger_file.read_text())
    ledger_file.write_text(json.dumps(dict(data, snapshot=[])))
    result = runner.invoke(main, ["state", "--state-dir", str(state_dir)])
    assert result.exit_code == 2
    assert "error: MalformedFile: ledger: not what its event log replays to" in result.output
    result = runner.invoke(main, [
        "cycle", "--state-dir", str(state_dir), "--submissions-dir",
        str(tmp_path / "subs-a"), "--baseline-file", str(base), "--year", "2027",
    ])
    assert result.exit_code == 2
    assert result.output == "error: MalformedFile: ledger: not what its event log replays to\n"
    verify = ["verify", str(state_dir / "report-2026.kldr"),
              str(state_dir / "report-2026.commit"),
              "--event-log", str(ledger_file), "--baseline-file", str(base)]
    result = runner.invoke(main, verify)
    assert result.exit_code == 2
    assert result.output == NOT_AN_EVENT_LOG_FILE
    ledger_file.write_text(json.dumps(dict(data, event_log=[{"op": "advance_month"}])))
    result = runner.invoke(main, verify)
    assert result.exit_code == 1
    assert result.output == "verification failed: MalformedEventLog\n"
    ledger_file.write_text(json.dumps(dict(data, event_log={})))
    result = runner.invoke(main, verify)
    assert result.exit_code == 2
    assert result.output == NOT_AN_EVENT_LOG_FILE


def test_cycle_submission_not_an_object_exit_2(runner, tmp_path):
    state_dir = tmp_path / "state"
    subs = tmp_path / "subs"
    subs.mkdir()
    write_submission(subs / "op-1.json", "op-1")
    (subs / "op-2.json").write_text("[]")
    base = tmp_path / "baseline.json"
    write_baseline(base)
    result = runner.invoke(main, [
        "cycle", "--state-dir", str(state_dir), "--submissions-dir", str(subs),
        "--baseline-file", str(base), "--year", "2026",
    ])
    assert result.exit_code == 2
    assert result.output == "error: MalformedFile: op-2.json: not a JSON object\n"
    assert list(state_dir.iterdir()) == []


@pytest.mark.parametrize("key", ["bdi", "debt_ratios"])
def test_cycle_bool_value_exit_2(runner, tmp_path, key):
    # a JSON true must not parse as 1.0, in the index fields or the inputs
    state_dir = tmp_path / "state"
    subs = tmp_path / "subs"
    subs.mkdir()
    write_submission(subs / "op-1.json", "op-1")
    data = json.loads((subs / "op-1.json").read_text())
    value = True if key == "bdi" else dict(data["debt_ratios"], US=True)
    (subs / "op-2.json").write_text(json.dumps(dict(data, **{key: value})))
    base = tmp_path / "baseline.json"
    write_baseline(base)
    result = runner.invoke(main, [
        "cycle", "--state-dir", str(state_dir), "--submissions-dir", str(subs),
        "--baseline-file", str(base), "--year", "2026",
    ])
    assert result.exit_code == 2
    assert result.output == "error: ValueError: not a decimal: True\n"
    assert list(state_dir.iterdir()) == []


def test_index_last_confirmed_not_an_object_exit_2(runner, tmp_path):
    # the file is read whenever it is given, whether or not a bloc is missing
    for drop_kr in (True, False):
        result = index_with_prior(runner, tmp_path, [], drop_kr)
        assert result.exit_code == 2
        assert result.output == \
            "error: MalformedFile: prior.json: not a JSON object\n"


def test_cycle_debt_ratios_not_an_object_exit_2(runner, tmp_path):
    state_dir = tmp_path / "state"
    subs = tmp_path / "subs"
    subs.mkdir()
    write_submission(subs / "op-1.json", "op-1")
    data = json.loads((subs / "op-1.json").read_text())
    (subs / "op-2.json").write_text(json.dumps(dict(data, debt_ratios=[])))
    base = tmp_path / "baseline.json"
    write_baseline(base)
    result = runner.invoke(main, [
        "cycle", "--state-dir", str(state_dir), "--submissions-dir", str(subs),
        "--baseline-file", str(base), "--year", "2026",
    ])
    assert result.exit_code == 2
    assert result.output == (
        "error: MalformedFile: op-2.json: debt_ratios: not a JSON object\n")
    assert list(state_dir.iterdir()) == []


def test_index_last_confirmed_entry_not_an_object_exit_2(runner, tmp_path):
    for drop_kr in (True, False):
        result = index_with_prior(runner, tmp_path, {"KR": "x"}, drop_kr)
        assert result.exit_code == 2
        assert result.output == \
            "error: MalformedFile: prior.json: KR: not a JSON object\n"


def index_with_prior(runner, tmp_path, prior, drop_kr=True):
    """`kld index --fmt canonical` on the write_snapshot levels, with KR
    dropped unless `drop_kr` is false, and `prior` as the --last-confirmed
    file."""
    snap = tmp_path / "snap.csv"
    write_snapshot(snap, "2026-October")
    if drop_kr:
        lines = snap.read_text().splitlines()
        snap.write_text("\n".join(lines[:-2]) + "\n")
    base = tmp_path / "baseline.json"
    write_baseline(base)
    prior_file = tmp_path / "prior.json"
    prior_file.write_text(json.dumps(prior))
    return runner.invoke(main, [
        "index", str(snap), "--baseline-file", str(base),
        "--vintage", "2026-October", "--publication-date", "2026-10-14",
        "--last-confirmed", str(prior_file), "--fmt", "canonical",
    ])


def test_index_last_confirmed_fills_the_missing_bloc(runner, tmp_path):
    full_snap = tmp_path / "full.csv"
    write_snapshot(full_snap, "2026-October")
    base = tmp_path / "baseline.json"
    write_baseline(base)
    full = runner.invoke(main, [
        "index", str(full_snap), "--baseline-file", str(base),
        "--vintage", "2026-October", "--publication-date", "2026-10-14",
        "--fmt", "canonical",
    ])
    assert full.exit_code == 0, full.output
    carried = index_with_prior(runner, tmp_path, {
        "KR": {"debt_ratio": "150", "nominal_gdp": "2000"}})
    assert carried.exit_code == 0, carried.output
    full_payload, carried_payload = (json.loads(full.output),
                                     json.loads(carried.output))
    # the snapshot file differs, so its hash does; every index field agrees
    assert full_payload.pop("dataset_hash") != carried_payload.pop("dataset_hash")
    assert carried_payload == full_payload


@pytest.mark.parametrize("prior, message", [
    # an entry for a bloc the snapshot has is unused, and still checked
    ({"KR": {"debt_ratio": "150", "nominal_gdp": "2000"},
      "US": {"debt_ratio": "-1", "nominal_gdp": "2000"}},
     "NegativeValue: US: debt_ratio < 0"),
    ({"KR": {"debt_ratio": "150", "nominal_gdp": "2000"},
      "XX": {"debt_ratio": "150", "nominal_gdp": "2000"}},
     "ValueError: 'XX' is not a valid Bloc"),
], ids=["negative-unused-entry", "unknown-code"])
def test_index_last_confirmed_bad_entry_exit_2(runner, tmp_path, prior, message):
    for drop_kr in (True, False):
        result = index_with_prior(runner, tmp_path, prior, drop_kr)
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"


def _verb_args(verb, tmp_path, base):
    snap = tmp_path / "snap.csv"
    write_snapshot(snap, "2026-October")
    subs = tmp_path / "subs"
    subs.mkdir()
    for op in ("op-1", "op-2", "op-3"):
        write_submission(subs / f"{op}.json", op)
    report = tmp_path / "report.kldr"
    report.write_text("{}")
    commit = tmp_path / "report.commit"
    commit.write_text(json.dumps(
        {"content_hash": "0" * 64, "reference_link": "", "ledger_anchor": 1}))
    event_log = tmp_path / "events.json"
    event_log.write_text(json.dumps({"event_log": []}))
    return {
        "index": ["index", str(snap), "--baseline-file", str(base),
                  "--vintage", "2026-October", "--publication-date", "2026-10-14"],
        "cycle": ["cycle", "--state-dir", str(tmp_path / "state"),
                  "--submissions-dir", str(subs), "--baseline-file", str(base),
                  "--year", "2026"],
        "verify": ["verify", str(report), str(commit), "--event-log", str(event_log),
                   "--baseline-file", str(base)],
        "simulate": ["simulate", "--years", "1", "--out", str(tmp_path / "trace.csv")],
        "state": ["state", "--state-dir", str(tmp_path)],
    }[verb]


def _baseline(tmp_path):
    base = tmp_path / "baseline.json"
    write_baseline(base)
    return base


def _edit_json(path, **fields):
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **fields)))


# malformed input, whichever verb reads it, gives one
# `error: <Type>: <message>` line and no traceback
@pytest.mark.parametrize("verb, path, fields, error", [
    ("index", "baseline.json", {"publication_date": 5}, "TypeError"),
    ("index", "baseline.json", {"vintage_id": 7}, "MalformedFile"),
    ("index", "baseline.json", {"publication_date": "20251015"}, "ValueError"),
    ("index", "argv", {"--publication-date": "20261014"}, "ValueError"),
    ("cycle", "baseline.json", {"publication_date": 5}, "TypeError"),
    ("cycle", "baseline.json", {"vintage_id": 7}, "MalformedFile"),
    ("cycle", "baseline.json", {"publication_date": "20251015"}, "ValueError"),
    ("cycle", "subs/op-2.json", {"vintage_id": 5}, "MalformedFile"),
    ("verify", "report.kldr", None, "IsADirectoryError"),
    ("simulate", "trace.csv", None, "IsADirectoryError"),
    ("state", None, None, "FileNotFoundError"),
], ids=["index-publication-date", "index-vintage-id",
        "index-basic-format-publication-date", "index-basic-format-option",
        "cycle-publication-date", "cycle-vintage-id",
        "cycle-basic-format-publication-date", "cycle-submission-vintage-id",
        "verify-directory", "simulate-out-directory", "state-without-ledger"])
def test_bad_input_is_one_error_line_exit_2(runner, tmp_path, verb, path, fields,
                                            error):
    args = _verb_args(verb, tmp_path, _baseline(tmp_path))
    if path == "argv":  # an option's value on the command line
        for option, value in fields.items():
            args[args.index(option) + 1] = value
    elif fields is not None:
        _edit_json(tmp_path / path, **fields)
    elif path is not None:  # a directory where the verb reads or writes a file
        (tmp_path / path).unlink(missing_ok=True)
        (tmp_path / path).mkdir()
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}: ")


NEGATIVE_US = {b.value: "-150" if b.value == "US" else "150" for b in ALL_BLOCS}
WITHOUT_KR = {b.value: "150" for b in ALL_BLOCS if b.value != "KR"}


# the same fault exits the same way from every verb
@pytest.mark.parametrize("verb, fields, line, code", [
    ("index", None, "error: NegativeValue: US: debt_ratio < 0", 2),
    ("cycle", {"debt_ratios": NEGATIVE_US}, "error: NegativeValue: US: debt_ratio < 0", 2),
    ("cycle", {"debt_ratios": WITHOUT_KR}, "error: IncompleteBlocSet: op-2.json: "
     "debt_ratios: need exactly the KC7 set, got ['US', 'EA20', 'JP', 'UK', 'CA', "
     "'AU']", 2),
    ("cycle", {"g": "0.222222222"}, "error: InconsistentPayload: recomputed (bdi="
     "150.000000000, x=1.500000000, g=0.333333333) != submitted", 1),
], ids=["index-negative", "cycle-negative", "cycle-missing-bloc",
        "cycle-inconsistent"])
def test_exit_code_follows_the_error_class(runner, tmp_path, verb, fields, line, code):
    args = _verb_args(verb, tmp_path, _baseline(tmp_path))
    if fields is None:
        lines = (tmp_path / "snap.csv").read_text().splitlines()
        (tmp_path / "snap.csv").write_text("\n".join(
            ln.replace(f"US,{DEBT_SERIES},150,", f"US,{DEBT_SERIES},-150,")
            for ln in lines) + "\n")
    else:
        _edit_json(tmp_path / "subs" / "op-2.json", **fields)
    result = runner.invoke(main, args)
    assert result.exit_code == code
    assert result.output == line + "\n"
    assert not (tmp_path / "state" / "ledger.json").exists()


# a submission field of the wrong type or bloc set is refused before any
# cycle runs, by the file it is in
@pytest.mark.parametrize("fields, line", [
    ({"operator_id": 5}, "MalformedFile: op-2.json: operator_id: not a string"),
    ({"vintage_id": "2026-October\n"},
     "MalformedFile: op-2.json: bad vintage id: '2026-October\\n'"),
    ({"dataset_hash": 5}, "MalformedFile: op-2.json: bad dataset hash: 5"),
    ({"dataset_hash": HASH.upper()},
     f"MalformedFile: op-2.json: bad dataset hash: '{HASH.upper()}'"),
    ({"dataset_hash": HASH[:-1]},
     f"MalformedFile: op-2.json: bad dataset hash: '{HASH[:-1]}'"),
    ({"nominal_gdps": dict({b.value: "2000" for b in ALL_BLOCS}, XX="2000")},
     "IncompleteBlocSet: op-2.json: nominal_gdps: need exactly the KC7 set, got "
     "['US', 'EA20', 'JP', 'UK', 'CA', 'AU', 'KR', 'XX']"),
], ids=["operator-id", "vintage-id-newline", "dataset-hash", "dataset-hash-upper-case",
        "dataset-hash-short", "nominal-gdps-unknown-bloc"])
def test_bad_submission_field_exit_2(runner, tmp_path, fields, line):
    args = _verb_args("cycle", tmp_path, _baseline(tmp_path))
    _edit_json(tmp_path / "subs" / "op-2.json", **fields)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output == f"error: {line}\n"
    assert not (tmp_path / "state" / "ledger.json").exists()


@pytest.mark.parametrize("verb", ["index", "cycle", "verify"])
def test_baseline_without_lambda_exit_2(runner, tmp_path, verb):
    base = tmp_path / "baseline.json"
    write_baseline(base)
    data = json.loads(base.read_text())
    del data["lambda"]
    base.write_text(json.dumps(data))
    result = runner.invoke(main, _verb_args(verb, tmp_path, base))
    assert result.exit_code == 2
    assert result.output == "error: KeyError: 'lambda'\n"


@pytest.mark.parametrize("verb", ["index", "cycle", "verify"])
def test_baseline_nonpositive_lambda_exit_2(runner, tmp_path, verb):
    base = tmp_path / "baseline.json"
    write_baseline(base, lam="0")
    result = runner.invoke(main, _verb_args(verb, tmp_path, base))
    assert result.exit_code == 2
    assert result.output == "error: NonPositiveLambda: lambda must be positive\n"


@pytest.mark.parametrize("verb", ["index", "cycle"])
def test_lam_option_is_gone_exit_2(runner, tmp_path, verb):
    base = tmp_path / "baseline.json"
    write_baseline(base)
    result = runner.invoke(main, _verb_args(verb, tmp_path, base) + ["--lam", "1"])
    assert result.exit_code == 2
    assert "unrecognized arguments: --lam" in result.output


def test_verify_event_log_directory_exit_2(runner, tmp_path):
    result, state_dir, base = run_cycle(runner, tmp_path)
    assert result.exit_code == 0
    result = runner.invoke(main, [
        "verify", str(state_dir / "report-2026.kldr"),
        str(state_dir / "report-2026.commit"),
        "--event-log", str(state_dir), "--baseline-file", str(base),
    ])
    assert result.exit_code == 2
    assert result.output.startswith("error: IsADirectoryError: ")


# --- simulate ----------------------------------------------------------------

def test_simulate_prints_table(runner):
    result = runner.invoke(main, ["simulate", "--seed", "7", "--years", "1"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert lines[0].startswith("month,year,g,")
    assert len(lines) == 13


def test_simulate_out_file_deterministic(runner, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        result = runner.invoke(main, [
            "simulate", "--seed", "11", "--years", "2",
            "--dispute-year", "2", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
    assert out1.read_text() == out2.read_text()


# --- govern ------------------------------------------------------------------

def test_govern_accepts_bounded_change(runner):
    result = runner.invoke(main, ["govern", "--changes", '{"alpha_i": "0.03"}'])
    assert result.exit_code == 0
    assert "acceptable" in result.output


def test_govern_rejects_constitutional_parameter(runner):
    result = runner.invoke(main, ["govern", "--changes", '{"lambda": "2.0"}'])
    assert result.exit_code == 1
    assert "rejected" in result.output


def test_govern_rejects_out_of_bounds(runner):
    result = runner.invoke(main, ["govern", "--changes", '{"alpha_i": "0.06"}'])
    assert result.exit_code == 1


@pytest.mark.parametrize("changes, line, code", [
    ("{}", "rejected: OutOfBounds: empty change set", 1),
    ('{"alpha_i": "0.03"}', "acceptable: would enter voting", 0),
], ids=["empty", "in-bounds"])
def test_govern_prints_one_verdict_line(runner, changes, line, code):
    result = runner.invoke(main, ["govern", "--changes", changes])
    assert result.exit_code == code
    assert result.output == line + "\n"


def test_govern_bad_json_exit_2(runner):
    result = runner.invoke(main, ["govern", "--changes", "{not json"])
    assert result.exit_code == 2


@pytest.mark.parametrize("changes, error", [
    ("[1]", "MalformedFile: --changes: not a JSON object"),
    ('"x"', "MalformedFile: --changes: not a JSON object"),
    ('{"alpha_i": null}', "ValueError: not a decimal: None"),
    # a JSON true is not the number 1
    ('{"alpha_i": true}', "ValueError: not a decimal: True"),
], ids=["list", "string", "null", "bool"])
def test_govern_malformed_changes_exit_2(runner, changes, error):
    result = runner.invoke(main, ["govern", "--changes", changes])
    assert result.exit_code == 2
    assert result.output == f"error: {error}\n"


# --- the command line --------------------------------------------------------

def _without_state_dir(args):
    i = args.index("--state-dir")
    return args[:i] + args[i + 2:]


def test_state_dir_comes_from_the_environment(runner, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("KLADIA_STATE_DIR", str(env_dir))
    args = _verb_args("cycle", tmp_path, _baseline(tmp_path))
    result = runner.invoke(main, _without_state_dir(args))
    assert result.exit_code == 0, result.output
    assert result.output == CYCLE_OUTPUT
    assert (env_dir / "ledger.json").exists()
    result = runner.invoke(main, ["state"])
    assert result.exit_code == 0, result.output
    assert "state_hash\t" in result.output


def test_state_dir_option_wins_over_the_environment(runner, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("KLADIA_STATE_DIR", str(env_dir))
    result = runner.invoke(main, _verb_args("cycle", tmp_path, _baseline(tmp_path)))
    assert result.exit_code == 0, result.output
    assert (tmp_path / "state" / "ledger.json").exists()
    result = runner.invoke(main, ["state", "--state-dir", str(tmp_path / "state")])
    assert result.exit_code == 0, result.output
    assert not env_dir.exists()


@pytest.mark.parametrize("verb", ["cycle", "state"])
def test_no_state_dir_exit_2(runner, tmp_path, monkeypatch, verb):
    monkeypatch.delenv("KLADIA_STATE_DIR", raising=False)
    args = _verb_args(verb, tmp_path, _baseline(tmp_path))
    result = runner.invoke(main, _without_state_dir(args))
    assert result.exit_code == 2
    assert "--state-dir" in result.output
    assert not (tmp_path / "state").exists()


@pytest.mark.parametrize("verb, edit", [
    ("index", lambda args: []),
    ("verify", lambda args: ["--event" if a == "--event-log" else a for a in args]),
    ("index", lambda args: args + ["--fmt", "bogus"]),
], ids=["bare-kld", "abbreviated-option", "unknown-format"])
def test_usage_error_exit_2(runner, tmp_path, verb, edit):
    result = runner.invoke(main, edit(_verb_args(verb, tmp_path, _baseline(tmp_path))))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args", [["--help"], ["verify", "--help"]])
def test_help_exit_0(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "usage" in result.output.lower()


def test_format_is_fmt(runner, tmp_path):
    args = _verb_args("index", tmp_path, _baseline(tmp_path))
    fmt, form = (runner.invoke(main, args + [option, "canonical"])
                 for option in ("--fmt", "--format"))
    assert fmt.exit_code == form.exit_code == 0
    assert form.output == fmt.output
    assert json.loads(form.output)["g"] == "0.333333333"


def test_missing_submissions_dir_exit_2_before_the_state_dir(runner, tmp_path):
    args = _verb_args("cycle", tmp_path, _baseline(tmp_path))
    args[args.index("--submissions-dir") + 1] = str(tmp_path / "no-such-dir")
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert not (tmp_path / "state").exists()


# --- every input file --------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures" / "cli"


def _reads(root):
    """Each verb that reads a CLI input file, as argv over the files in `root`:
    the fixture inputs beside the state dir they settle for 2026."""
    state = root / "state"
    return {
        "index": ["index", str(root / "snapshot.csv"), "--baseline-file",
                  str(root / "baseline.json"), "--vintage", "2026-October",
                  "--publication-date", "2026-10-14"],
        "cycle": ["cycle", "--state-dir", str(root / "fresh"), "--submissions-dir",
                  str(root / "submissions"), "--baseline-file",
                  str(root / "baseline.json"), "--year", "2026"],
        "next-cycle": ["cycle", "--state-dir", str(state), "--submissions-dir",
                       str(root / "submissions"), "--baseline-file",
                       str(root / "baseline.json"), "--year", "2027"],
        "verify": ["verify", str(state / "report-2026.kldr"),
                   str(state / "report-2026.commit"), "--event-log",
                   str(state / "ledger.json"), "--baseline-file",
                   str(root / "baseline.json")],
        "state": ["state", "--state-dir", str(state)],
    }


# (input file, a verb that reads it)
INPUT_READS = [
    ("snapshot.csv", "index"),
    ("baseline.json", "index"), ("baseline.json", "cycle"),
    ("baseline.json", "verify"),
    ("submissions/op-2.json", "cycle"),
    ("state/ledger.json", "state"), ("state/ledger.json", "next-cycle"),
    ("state/ledger.json", "verify"),
    ("state/report-2026.commit", "verify"),
]


@pytest.fixture(scope="module")
def settled(tmp_path_factory):
    root = tmp_path_factory.mktemp("settled")
    shutil.copytree(FIXTURES, root, dirs_exist_ok=True)
    result = Runner().invoke(main, _reads(root)["cycle"])
    assert result.exit_code == 0, result.output
    (root / "fresh").rename(root / "state")
    return root


def _paths(value, path=()):
    """The path to every value inside a JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(raw, name, how, where, value):
    """`raw` with one fault: at the fraction `where` of its bytes, or of its
    fields (JSON values, or CSV cells), `how` deletes or retypes a field,
    oversizes a number, truncates the file or writes non-UTF-8 bytes."""
    if how == "truncate":
        return raw[:int(where * len(raw))]
    if how == "non-utf-8":
        at = int(where * (len(raw) + 1))
        return raw[:at] + value + raw[at:]
    if name.endswith(".csv"):
        rows = [line.split(",") for line in raw.decode().splitlines()]
        cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
        r, c = cells[int(where * len(cells))]
        if how == "delete":
            del rows[r][c]
        else:
            rows[r][c] = str(value)
        return "".join(",".join(row) + "\n" for row in rows).encode()
    data = json.loads(raw)
    paths = list(_paths(data))
    *path, key = paths[int(where * len(paths))]
    parent = data
    for step in path:
        parent = parent[step]
    if how == "delete":
        del parent[key]
    else:
        parent[key] = value
    return json.dumps(data).encode()


_WHERE = st.floats(0, 1, exclude_max=True)
_OTHER_TYPE = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=8) | st.lists(st.integers(), max_size=2)
               | st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))
_OVERSIZED = st.integers(19, 4000).flatmap(lambda k: st.sampled_from(
    [10 ** k, -10 ** k, "9" * k, "9" * k + ".5", f"1e{k}"]))
_NON_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"])
MUTATIONS = st.one_of(
    st.tuples(st.just("delete"), _WHERE, st.none()),
    st.tuples(st.just("retype"), _WHERE, _OTHER_TYPE),
    st.tuples(st.just("oversize"), _WHERE, _OVERSIZED),
    st.tuples(st.just("truncate"), _WHERE, st.none()),
    st.tuples(st.just("non-utf-8"), _WHERE, _NON_UTF8),
)


@settings(max_examples=200, deadline=None)
@given(read=st.sampled_from(INPUT_READS), mutation=MUTATIONS)
@example(read=("snapshot.csv", "index"), mutation=("non-utf-8", 0.5, b"\xff"))
@example(read=("snapshot.csv", "index"), mutation=("retype", 0.0, "\r"))
def test_no_input_file_gives_a_traceback(settled, read, mutation):
    name, verb = read
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "inputs"
        shutil.copytree(settled, root)
        (root / name).write_bytes(_mutate((root / name).read_bytes(), name, *mutation))
        result = Runner().invoke(main, _reads(root)[verb])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 2:
        assert len(result.output.splitlines()) == 1, result.output
        assert result.output.startswith("error: "), result.output

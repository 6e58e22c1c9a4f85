import json

import pytest

from urbanav.cli import build_parser, main
from urbanav.corpus import load_corpus
from urbanav.worldmap import save_map

from conftest import plus_map

TINY_SYNTH = """\
n_maps = 2
paragraphs_per_map = 4
grid_size = 18
rows = 3
cols = 3
"""

TINY_MODEL = """\
embed_dim = 8
encoder_hidden = 8
decoder_hidden = 8
epochs = 1
beam_width = 2
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = root / "synth.cfg"
    cfg.write_text(TINY_SYNTH)
    assert main(["synth", "--out", str(root), "--seed", "3", "--config", str(cfg)]) == 0
    return root


def test_synth_writes_maps_and_corpus(data_dir):
    assert (data_dir / "corpus.txt").exists()
    maps = sorted(p.name for p in data_dir.glob("*.map"))
    assert maps == ["synth-1.map", "synth-2.map"]
    corpus = load_corpus(data_dir / "corpus.txt")
    assert len(corpus.paragraphs) == 8


def test_synth_is_seed_deterministic(tmp_path, data_dir):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(TINY_SYNTH)
    out = tmp_path / "again"
    assert main(["synth", "--out", str(out), "--seed", "3", "--config", str(cfg)]) == 0
    assert (out / "corpus.txt").read_bytes() == (data_dir / "corpus.txt").read_bytes()


def test_stats_prints_table(data_dir, capsys):
    assert main(["stats", "--data", str(data_dir)]) == 0
    out = capsys.readouterr().out
    assert "instructions:" in out and "avg_tokens_per_instruction:" in out


def test_simulate_end_only(tmp_path, capsys):
    path = tmp_path / "plus.map"
    save_map(plus_map(), path)
    code = main(["simulate", "--map", str(path), "--start", "(1,2,+1)", "--actions", "END"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "(3,2)"


def test_simulate_walks(tmp_path, capsys):
    path = tmp_path / "plus.map"
    save_map(plus_map(), path)
    code = main(["simulate", "--map", str(path), "--start", "(2,0,+1)",
                 "--actions", "WALK WALK END"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "(0,3);(1,3);(2,3)"


def test_simulate_reports_failures(tmp_path, capsys):
    path = tmp_path / "plus.map"
    save_map(plus_map(), path)
    code = main(["simulate", "--map", str(path), "--start", "(1,0,-1)",
                 "--actions", "WALK END"])
    assert code == 1
    err = capsys.readouterr().err
    assert "failed" in err


def test_simulate_rejects_bad_start_pose(tmp_path, capsys):
    path = tmp_path / "plus.map"
    save_map(plus_map(), path)
    code = main(["simulate", "--map", str(path), "--start", "(1,99,1)", "--actions", "END"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ("execution failed: action 0 (END) failed: "
                            "index 99 is off street 1 of length 7\n")
    assert captured.out == "partial route: \n"


def test_abstract_command(tmp_path, capsys):
    path = tmp_path / "plus.map"
    save_map(plus_map(), path)
    code = main(["abstract", "--map", str(path),
                 "--text", "Walk from Macy's to 7th street"])
    assert code == 0
    out = capsys.readouterr().out
    assert "<SHOP_1>" in out and "<STREET_1>" in out


BROKEN_CORPORA = {
    # case: (line number in corpus.txt, text on it, its replacement, the error after the path)
    "unknown map": (2, "map=synth-1", "map=synth-9",
                    "paragraph synth-1-p0000: no map 'synth-9' in the data dir"),
    "unknown binding": (21, "<CAFE_1>=11", "<CAFE_1>=9999",
                        "paragraph synth-1-p0000, instruction 2: "
                        "binding <CAFE_1>=9999 names nothing on map synth-1"),
    "bad start pose": (2, "start=(6,13,+1)", "start=(6,99,-1)",
                       "paragraph synth-1-p0000, instruction 0: "
                       "bad start pose: index 99 is off street 6 of length 18"),
}


@pytest.mark.parametrize("case", BROKEN_CORPORA)
def test_corpus_is_checked_against_its_maps(data_dir, tmp_path, capsys, case):
    line_no, old, new, message = BROKEN_CORPORA[case]
    broken = tmp_path / "broken"
    broken.mkdir()
    for map_path in data_dir.glob("*.map"):
        (broken / map_path.name).write_bytes(map_path.read_bytes())
    lines = (data_dir / "corpus.txt").read_text().splitlines(keepends=True)
    assert old in lines[line_no - 1]
    lines[line_no - 1] = lines[line_no - 1].replace(old, new)
    (broken / "corpus.txt").write_text("".join(lines))
    cfg = tmp_path / "model.cfg"
    cfg.write_text(TINY_MODEL)
    for argv in (["train", "--variant", "cga", "--out", str(tmp_path / "m.npz"),
                  "--config", str(cfg)],
                 ["evaluate", "--policy", "jump", "--report-dir", str(tmp_path / "rep")]):
        assert main([*argv, "--data", str(broken)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {broken / 'corpus.txt'}: {message}\n"
    assert not (tmp_path / "m.npz").exists() and not (tmp_path / "rep").exists()


def test_usage_error_exits_nonzero(data_dir, capsys):
    code = main(["evaluate", "--data", str(data_dir), "--policy", "bogus"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_unknown_config_key_rejected(data_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_real_key = 3\n")
    code = main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert code == 1
    assert "not_a_real_key" in capsys.readouterr().err


def _config_argv(command, data_dir, tmp_path, cfg):
    out = tmp_path / "out"
    return {
        "synth": ["synth", "--out", str(out), "--config", str(cfg)],
        "train": ["train", "--data", str(data_dir), "--out", str(out), "--config", str(cfg)],
        "evaluate": ["evaluate", "--data", str(data_dir), "--policy", "cgaew",
                     "--config", str(cfg), "--report-dir", str(out)],
    }[command], out


DIVERGES = "learning_rate = 1e30\nepochs = 1"
BAD_CONFIGS = [
    # (command, config line, text the error must contain)
    ("synth", "seed = 7", "--seed"),
    ("train", "seed = 7", "--seed"),
    ("evaluate", "seed = 7", "--seeds"),
    ("train", "variant = CGA", "--variant"),
    ("evaluate", "variant = CGA", "--policy"),
    ("synth", "entity_counts = 3", "cannot be set"),
    ("synth", "templates = walk_until_signal", "cannot be set"),
    ("synth", "train_names = a", "cannot be set"),
    ("synth", "unseen_names = a", "cannot be set"),
    ("synth", "grid_size = big", "'big' does not parse as int"),
    ("train", "learning_rate = fast", "'fast' does not parse as float"),
    ("evaluate", "dropout_keep = most", "'most' does not parse as float"),
    ("synth", "grid_size = 18.5", "'18.5' does not parse as int"),
    ("train", "epochs = 1.5", "'1.5' does not parse as int"),
    ("evaluate", "epochs = 1.5", "'1.5' does not parse as int"),
    ("synth", "grid_size = 18\nrows = 3\ngrid_size = 20",
     "bad.cfg:3: config key 'grid_size' is set twice"),
    # values out of their field's range
    ("synth", "n_maps = 0", "n_maps must be at least 1, got 0"),
    ("synth", "paragraphs_per_map = -1", "paragraphs_per_map must be at least 1, got -1"),
    ("synth", "max_sentences = 1", "max_sentences must be at least min_sentences = 2, got 1"),
    ("synth", "min_sentences = 0", "min_sentences must be at least 1, got 0"),
    ("synth", "min_sentences = 6", "max_sentences must be at least min_sentences = 6, got 5"),
    ("synth", "walk_max = 15", "walk_max must be from walk_min = 2 to 14"),
    ("synth", "distractor_rate = 1.5", "distractor_rate must be in [0, 1], got 1.5"),
    ("synth", "n_maps = 8", "name pools too small"),
    ("train", "epochs = -1", "epochs must be at least 1, got -1"),
    ("train", "dtype = foo", "dtype must be float32 or float64, got 'foo'"),
    ("train", "dtype = float16", "dtype must be float32 or float64, got 'float16'"),
    ("train", "learning_rate = -1", "learning_rate must be above 0, got -1.0"),
    ("train", "horizon = -1", "horizon must be at least 0, got -1"),
    ("train", "encoder_hidden = 7", "encoder_hidden must be even"),
    ("evaluate", "epochs = 0", "epochs must be at least 1, got 0"),
    ("evaluate", "beam_width = 0", "beam_width must be at least 1, got 0"),
    ("evaluate", "max_decode_len = 0", "max_decode_len must be at least 1, got 0"),
    ("evaluate", "dropout_keep = 0", "dropout_keep must be in (0, 1], got 0.0"),
    # a run that diverges names the epoch and the example instead
    ("train", DIVERGES, "error: non-finite loss at epoch 1, example "),
    ("evaluate", DIVERGES, "error: non-finite loss at epoch 1, example "),
]


@pytest.mark.parametrize("command,line,expected", BAD_CONFIGS,
                         ids=[f"{c}:{line.replace(' = ', '=').replace(chr(10), ';')}"
                              for c, line, _ in BAD_CONFIGS])
def test_bad_config_value_or_key_names_the_key(data_dir, tmp_path, monkeypatch, capsys,
                                               command, line, expected):
    """A key a flag owns, a field a flat file cannot express, a value its field
    cannot parse or holds out of range, or a key set twice exits 1 with one
    error line naming the key, before anything trains; a run that diverges
    exits 1 with one naming the epoch and example. No traceback, nothing
    written."""
    import urbanav.training as training

    trained = []
    real_train = training.train

    def recording_train(*args):
        trained.append(args)
        return real_train(*args)

    monkeypatch.setattr(training, "train", recording_train)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    argv, out = _config_argv(command, data_dir, tmp_path, cfg)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
    assert len(err.splitlines()) == 1  # no traceback
    if line == DIVERGES:
        assert trained
    else:
        assert f"config key {line.split('=')[0].strip()!r}" in err and not trained
    assert not out.exists()


def test_evaluate_reports_the_variant_it_trained(data_dir, tmp_path, monkeypatch):
    import urbanav.training as training

    trained = []
    real_train = training.train

    def recording_train(train_pairs, val_pairs, config):
        trained.append(config.variant)
        return real_train(train_pairs, val_pairs, config)

    monkeypatch.setattr(training, "train", recording_train)
    cfg = tmp_path / "model.cfg"
    cfg.write_text(TINY_MODEL + "dropout_keep = 1\n")
    out = tmp_path / "rep"
    assert main(["evaluate", "--data", str(data_dir), "--policy", "cga",
                 "--config", str(cfg), "--report-dir", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert trained == ["CGA", "CGA"]  # one fit per fold
    assert payload["variant"] == "CGA"
    assert payload["config"] == {"seeds": [0], "embed_dim": 8, "encoder_hidden": 8,
                                 "decoder_hidden": 8, "epochs": 1, "beam_width": 2,
                                 "dropout_keep": 1.0}


@pytest.mark.parametrize("argv,flag,text", [
    (["simulate", "--map", "m.map", "--start", "(a,1,1)", "--actions", "END"], "--start", "(a,1,1)"),
    (["simulate", "--map", "m.map", "--start", "(1,1)", "--actions", "END"], "--start", "(1,1)"),
    (["evaluate", "--data", "d", "--policy", "no-move", "--seeds", "0,x"], "--seeds", "0,x"),
    (["evaluate", "--data", "d", "--policy", "no-move", "--jobs", "0"], "--jobs", "0"),
    (["evaluate", "--data", "d", "--policy", "no-move", "--jobs", "-2"], "--jobs", "-2"),
], ids=["start-text", "start-two-parts", "seeds-text", "jobs-0", "jobs-negative"])
def test_bad_flag_value_names_the_flag(tmp_path, monkeypatch, capsys, argv, flag, text):
    monkeypatch.chdir(tmp_path)
    save_map(plus_map(), tmp_path / "m.map")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and text in err


def test_evaluate_no_move_writes_reports(data_dir, capsys):
    report_dir = data_dir / "reports" / "no-move"
    code = main(["evaluate", "--data", str(data_dir), "--policy", "no-move",
                 "--seeds", "0"])
    assert code == 0
    payload = json.loads((report_dir / "report.json").read_text())
    assert payload["format"] == "urbanav-report"
    assert payload["policy"] == "no-move"
    assert len(payload["folds"]) == 2
    csv_text = (report_dir / "report.csv").read_text()
    assert csv_text.startswith("policy,variant,fold")


def test_evaluate_random_policy_writes_reports(data_dir, tmp_path):
    out = tmp_path / "rep"
    code = main(["evaluate", "--data", str(data_dir), "--policy", "random",
                 "--seeds", "1", "--report-dir", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["policy"] == "random"
    assert payload["config"] == {"seeds": [1]}


@pytest.mark.parametrize("text", [TINY_MODEL, ""])
def test_evaluate_baseline_rejects_config(data_dir, tmp_path, capsys, text):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(text)
    out = tmp_path / "rep"
    code = main(["evaluate", "--data", str(data_dir), "--policy", "jump",
                 "--config", str(cfg), "--report-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--config" in err and "jump" in err
    assert not out.exists()


SEED_COMMANDS = {"synth", "train", "gradcheck"}
CONFIG_COMMANDS = {"synth", "train", "evaluate"}


def test_seed_and_config_flags_only_where_read():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == {"synth", "stats", "simulate", "abstract", "train",
                                "evaluate", "gradcheck"}
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert ("--seed" in flags) == (name in SEED_COMMANDS), name
        assert ("--config" in flags) == (name in CONFIG_COMMANDS), name


@pytest.mark.parametrize("argv", [
    ["stats", "--data", "d", "--seed", "1"],
    ["gradcheck", "--config", "f"],
    ["evaluate", "--data", "d", "--policy", "no-move", "--seed", "1"],
    ["baseline", "--data", "d", "--kind", "random"],
])
def test_removed_flags_and_commands_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code != 0
    assert "error:" in capsys.readouterr().err


def test_bad_urbanav_seed_fails_only_where_read(data_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("URBANAV_SEED", "x")
    assert main(["stats", "--data", str(data_dir)]) == 0
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.npz")])
    assert code == 1
    assert "error: URBANAV_SEED must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


def test_urbanav_seed_is_the_seed_default(tmp_path, data_dir, monkeypatch):
    monkeypatch.setenv("URBANAV_SEED", "3")
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(TINY_SYNTH)
    out = tmp_path / "env"
    assert main(["synth", "--out", str(out), "--config", str(cfg)]) == 0
    assert (out / "corpus.txt").read_bytes() == (data_dir / "corpus.txt").read_bytes()


def test_train_and_evaluate_model(data_dir, tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(TINY_MODEL)
    ckpt = tmp_path / "model.npz"
    log = tmp_path / "log.csv"
    code = main(["train", "--data", str(data_dir), "--variant", "cgaew",
                 "--out", str(ckpt), "--log", str(log), "--seed", "0",
                 "--config", str(cfg)])
    assert code == 0
    assert ckpt.exists()
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,train_nll,val_nll"
    assert len(lines) == 2  # one epoch

    from urbanav.model import NavigationModel

    model = NavigationModel.load(ckpt)
    assert model.config.variant == "CGAEW"


def test_gradcheck_exits_zero(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "max relative gradient error" in out


def test_evaluate_reports_are_byte_identical(data_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["evaluate", "--data", str(data_dir), "--policy", "no-move",
                     "--seeds", "0,1", "--report-dir", str(out)])
        assert code == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()

"""The demo scripts under scripts/ run end to end."""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mock_rollout_is_deterministic_and_prints_the_sweep(tmp_path, capsys):
    script = load_script("run_mock_rollout")
    for run in ("a", "b"):
        assert script.main(["--workdir", str(tmp_path / run)]) == 0
    a, b = (tmp_path / run / "rollouts.jsonl" for run in ("a", "b"))
    assert a.read_bytes() == b.read_bytes()
    lines = capsys.readouterr().out.splitlines()
    header = f"{'lambda':>8}  {'mean_total':>10}  {'mean_direct':>11}  {'mean_reinf':>10}"
    assert lines.count(header) == 2
    start = lines.index(header)
    assert [line.split()[0] for line in lines[start + 1 : start + 5]] == [
        "0.000", "0.100", "0.200", "0.300"
    ]


def test_readme_transcript_of_the_mock_rollout_is_its_output(tmp_path, capsys):
    """The transcript opens with the summary line that `structrl rollout`
    derives from the records it writes."""
    text = README.read_text("utf-8")
    transcript = text[text.index("With the defaults it prints:") :].split("```")[1]
    assert load_script("run_mock_rollout").main(["--workdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == transcript.lstrip("\n")


def test_density_theory_passes_on_a_small_corpus(capsys):
    script = load_script("verify_density_theory")
    assert script.main(["--n", "20", "--show", "0"]) == 0
    assert "summary: n=20" in capsys.readouterr().out

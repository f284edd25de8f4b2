import pytest

from expcircle import audits, cli, errors
from expcircle.errors import ExpCircleError, Violation

# The documented exit code of every package error class (README, "Exit codes").
EXIT_CODES = {
    errors.ExpCircleError: 2,
    errors.CertificationError: 2,
    errors.NotExpanding: 2,
    errors.DegreeMismatch: 2,
    errors.ConfigError: 2,
    errors.InvalidAlpha: 2,
    errors.ResolutionMismatch: 2,
    errors.NonPositiveDensity: 2,
    errors.ZeroObservable: 2,
    errors.NoConvergence: 3,
    errors.RootFindingFailure: 3,
    errors.Violation: 4,
    errors.AuditViolation: 4,
    errors.FloorViolation: 4,
    errors.ArcViolation: 4,
    errors.NotInvariant: 4,
}


def _subclasses(cls) -> set:
    return {cls}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


def test_every_error_class_has_a_documented_exit_code():
    assert _subclasses(ExpCircleError) == set(EXIT_CODES)


@pytest.mark.parametrize("cls", EXIT_CODES, ids=lambda cls: cls.__name__)
def test_cli_exits_with_the_documented_code(cls, monkeypatch, tmp_path, capsys):
    def command(cfg):
        raise cls("boom")

    _, keys, min_resolution, help_text = cli.COMMANDS["constants"]
    monkeypatch.setitem(cli.COMMANDS, "constants",
                        (command, keys, min_resolution, help_text))
    assert cli.main(["constants", "--out", str(tmp_path)]) == EXIT_CODES[cls]
    out, err = capsys.readouterr()
    assert out == "" and err == "error: boom\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("cls", EXIT_CODES, ids=lambda cls: cls.__name__)
def test_audits_fail_exactly_the_violations(cls, monkeypatch):
    monkeypatch.setattr(audits, "_AUDITS", [])

    @audits._audit("raises")
    def raises():
        raise cls("boom")

    if issubclass(cls, Violation):
        result = raises()
        assert (result.name, result.ok, result.detail) == ("raises", False, "boom")
    else:
        with pytest.raises(cls):
            raises()

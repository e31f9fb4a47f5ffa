"""The scenario tables: a fuzz over corrupted INIs, and the README reference.

The fuzz draws a valid scenario of each kind by walking the kind's table
in ``cli.KINDS``, so every key a table lists can get a value and a key is
set only when its mode reads it.  Dimensions and step counts stay small.
It then corrupts one thing and runs the file through ``cli.main``.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from affgeo import cli

README = Path(__file__).resolve().parents[1] / "README.md"

NUMBER = st.sampled_from(["0.5", "-0.25", "1", "0.75", "-1.5", "2"])
POSITIVE = st.sampled_from(["0.5", "1", "1.5", "2"])
BOOL = st.sampled_from(["true", "false"])


def numbers(n, item=NUMBER):
    return st.lists(item, min_size=n, max_size=n).map(", ".join)


def diagonal(n, item=NUMBER):
    return numbers(n, item).map(lambda d: "; ".join(
        " ".join(x if i == j else "0" for j, x in enumerate(d.split(", ")))
        for i in range(n)))


def quoted(names, n):
    term = st.sampled_from(["0", "1", "0.5", *names, *(f"{v}^2" for v in names),
                            *(f"0.5*{a}*{b}" for a in names for b in names)])
    return st.lists(term, min_size=n, max_size=n).map(
        lambda terms: ", ".join(f'"{t}"' for t in terms))


def raw(table, got, section, key):
    """The text a key holds so far: drawn, else its table default."""
    entry = next(e for e in table if (e.section, e.key) == (section, key))
    return got.get((section, key), entry.default)


def strategy(kind, table, got, section, key):
    """Valid text for one key, given the keys drawn before it."""
    size = {"affine-verify": ("space", "dim"), "affgebra-verify": ("structure", "dim"),
            "timedep": ("system", "dim")}.get(kind, ("spacetime", "dim"))
    dim = int(got.get(size, "3" if size[0] == "spacetime" else "1"))
    rank = int(got.get(("structure", "rank"), 1))
    names = [n.strip() for n in (got.get(("base", "coords")) or
                                 got.get(("forms", "coords")) or "x").split(",")]
    hamiltonian = " + ".join(f"p{i}^2/2 + q{i}^2" for i in range(1, dim + 1))
    return {
        ("scenario", "kind"): st.just(kind),
        ("scenario", "name"): st.sampled_from(["fz", "fz_2", "a.b"]),
        ("scenario", "description"): st.sampled_from(["", "fuzzed"]),
        ("scenario", "seed"): st.integers(0, 9).map(str),
        ("space", "dim"): st.integers(1, 3).map(str),
        ("charts", "<name>"): st.tuples(diagonal(dim, POSITIVE), numbers(dim)).map(
            " | ".join),
        ("params", "samples"): st.integers(1, 4).map(str),
        ("params", "dims"): st.lists(st.sampled_from("123"), min_size=1,
                                     max_size=2).map(", ".join),
        ("params", "points"): st.integers(1, 4).map(str),
        ("structure", "dim"): st.integers(1, 3).map(str),
        ("structure", "D"): st.one_of(st.sampled_from(["identity", "zero"]), diagonal(dim)),
        ("structure", "c"): st.sampled_from(["entries", "zero"] + ["cross3"] * (dim == 3)),
        ("c", "<i> <j> <k>"): NUMBER,
        ("structure", "atiyah"): BOOL,
        ("structure", "dims"): st.just("1"),
        ("base", "coords"): st.sampled_from(["x", "q, t", "x, y"]),
        ("base", "low"): st.sampled_from(["-1", "-0.5", "0"]),
        ("base", "high"): st.sampled_from(["0.5", "1"]),
        ("base", "samples"): st.sampled_from(["grid", "grid:2", "grid:3", "random:3"]),
        ("structure", "rank"): st.integers(1, 2).map(str),
        ("structure", "anchor_ref"): quoted(names, len(names)),
        ("structure", "anchor<i>"): quoted(names, len(names)),
        ("structure", "beta<i>"): quoted(names, rank),
        ("structure", "v"): numbers(rank),
        ("c", "<i> <j>"): quoted(names, rank),
        ("checks", "hull"): BOOL,
        ("system", "dim"): st.integers(1, 2).map(str),
        ("system", "hamiltonian"): st.sampled_from([hamiltonian, hamiltonian + " + t*q1"]).map(
            lambda h: f'"{h}"'),
        ("integration", "step"): st.just("0.1"),
        ("integration", "duration"): st.sampled_from(["0.1", "0.3"]),
        ("integration", "initial"): st.sampled_from([2 * dim, 2 * dim + 1]).flatmap(numbers),
        ("output", "trajectory"): st.sampled_from(["t.csv", "out"]),
        ("spacetime", "dim"): st.integers(1, 3).map(str),
        ("spacetime", "metric"): st.one_of(st.just("identity"), diagonal(dim, POSITIVE)),
        ("system", "potential"): st.sampled_from(['"0"', '"q1^2"', '"q1 + t"']),
        ("system", "mass"): POSITIVE,
        ("system", "frame"): numbers(dim).map(lambda u: f"{u}, 1"),
        ("initial", "event"): numbers(dim + 1),
        ("initial", "momentum"): numbers(dim),
        ("initial", "s"): NUMBER,
        ("frames", "boosts"): st.lists(numbers(dim), min_size=1, max_size=2).map("; ".join),
        ("checks", "omega"): BOOL,
        ("checks", "eq1"): BOOL,
        ("checks", "reduction"): st.sampled_from(["none", "standard", "flipped"]),
        ("forms", "coords"): st.sampled_from(["x", "x, y"]),
        ("forms", "sections"): quoted(names, 2),
        ("sections", "sigma1"): st.sampled_from(['"-(p^2/2 + q*t)"', '"q*p"']),
        ("sections", "sigma2"): st.sampled_from(['"-(q*p - t)"', '"t"']),
    }[section, key]


@st.composite
def scenarios(draw):
    """(kind, {section: {key: text}}): a valid scenario of a drawn kind."""
    kind = draw(st.sampled_from(sorted(cli.KINDS)))
    table = cli.COMMON + cli.KINDS[kind][1]
    got, sections = {}, {}
    for e in table:
        if e.when and raw(table, got, *e.when[:2]) != str(e.when[2]).lower():
            continue
        if "<" not in e.key:
            if e.default == cli.REQUIRED or draw(st.booleans()):
                got[e.section, e.key] = draw(strategy(kind, table, got, e.section, e.key))
                sections.setdefault(e.section, {})[e.key] = got[e.section, e.key]
            continue
        hi = int(raw(table, got, *e.index[1])) if e.index else 2
        if e.key.endswith("<i>"):  # the library needs every anchor<i>
            ids = range(1, hi + 1) if e.key == "anchor<i>" else \
                sorted(draw(st.sets(st.integers(1, hi))))
            keys = [e.key.replace("<i>", str(i)) for i in ids]
        elif e.index:
            width = e.key.count("<")
            keys = sorted(draw(st.sets(st.lists(st.integers(1, hi), min_size=width,
                                                max_size=width).map(tuple), max_size=2)))
            keys = [" ".join(map(str, k)) for k in keys]
        else:
            keys = [f"c{i}" for i in range(draw(st.integers(0, 2)))]
        for key in keys:
            sections.setdefault(e.section, {})[key] = draw(
                strategy(kind, table, got, e.section, e.key))
    return kind, sections


CORRUPTIONS = ("none", "drop", "misspell", "section", "type", "range", "nan", "empty",
               "path", "garbage")


@st.composite
def corrupted(draw):
    """(must exit 2, INI text): a drawn valid scenario with one corruption."""
    kind, sections = draw(scenarios())
    how = draw(st.sampled_from(CORRUPTIONS))
    keys = [(s, k) for s in sections for k in sections[s] if (s, k) != ("scenario", "kind")]
    s, k = draw(st.sampled_from(keys)) if keys else ("scenario", "kind")
    if how == "drop" and keys:
        del sections[s][k]
    elif how == "misspell":
        sections[s][k + "z"] = sections[s].pop(k)
    elif how == "section":
        sections[s + "z"] = sections.pop(s) if s != "scenario" else {k: "1"}
    elif how in ("type", "range", "nan", "empty") and keys:
        sections[s][k] = {"type": "abc", "range": "-1", "nan": "nan", "empty": ""}[how]
    elif how == "garbage" and keys:
        sections[s][k] = draw(st.text(st.characters(blacklist_categories=("Cs",)),
                                      max_size=12))
    elif how == "path":
        target = draw(st.sampled_from([("scenario", "name"), ("output", "trajectory")]))
        if target[0] in sections:
            sections[target[0]][target[1]] = draw(st.sampled_from(["a/b", "../x", "/tmp/x"]))
        else:
            how = "none"
    text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for s, keys in sections.items())
    # a misspelled chart name is another chart name
    return how in ("section", "path") or how == "misspell" and s != "charts", text


@settings(max_examples=120, deadline=None)
@given(corrupted())
def test_fuzzed_scenario_exits_with_a_documented_code(case):
    must_refuse, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["run", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2, 3), text
        if must_refuse:
            assert code == 2, text
            assert err.getvalue().startswith("error:"), text
            assert not (Path(tmp) / "out").exists(), text


def readme_rows() -> dict[str, list[list[str]]]:
    """The rows of each table under the README's "Scenario keys", by kind."""
    text = README.read_text().split("## Scenario keys", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for block in text.split("\n### ")[1:]:
        kind, _, body = block.partition("\n")
        rows[kind] = [[c.strip() for c in line.strip("|").split("|")]
                      for line in body.splitlines() if line.startswith("| `")]
    return rows


def test_readme_lists_exactly_the_keys_of_the_tables():
    tables = {"every kind": cli.COMMON, **{k: v[1] for k, v in cli.KINDS.items()}}
    rows = readme_rows()
    assert list(rows) == list(tables)
    for kind, table in tables.items():
        assert [(r[0], r[1]) for r in rows[kind]] == \
            [(f"`[{e.section}]`", f"`{e.key}`") for e in table], kind
        for e, row in zip(table, rows[kind]):
            default, when = row[3], row[5]
            if e.default == cli.REQUIRED:
                assert default.startswith("required"), (kind, e.key)
            elif e.default:
                assert default == f"`{e.default}`", (kind, e.key)
            assert when == ("`{} = {}`".format(e.when[1], str(e.when[2]).lower())
                            if e.when else ""), (kind, e.key)

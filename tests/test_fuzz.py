"""Mutation fuzzing of every subcommand through ``cli.main``, in process.

Each test takes a valid input (an algebra, matrix, cocycle, certificate or
constraint-set file, or a catalog reference), mutates one node of it, and
runs the subcommand.  Whatever the input, the exit code is 0, 1 or 2, no
exception escapes, and exit 2 prints exactly one ``error:`` line.

Stronger oracles hold where the input format fixes a type:
- an exact scalar (structure constant, matrix or cocycle entry, certificate
  basis entry, index, parameter or sample value) is a JSON integer or
  string, so any other value there exits 2;
- an index or a dimension is a JSON integer, so any other value exits 2;
- a ``label`` of an algebra or certificate file is a string (a missing or
  empty one takes the default);
- every sample of the certificate seed binds only symbols the certificate
  uses, so renaming or dropping a sample's key leaves a symbol unbound and
  exits 2.
"""
import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from zinbiel5.catalog import _load
from zinbiel5.cli import main

ALGEBRA = {"dim": 3, "label": "seed", "entries": [[1, 1, 2, "1"], [1, 2, 3, "1/2"], [2, 1, 3, 1]]}
MATRIX = [["1", "0", "0", "0"], ["1", "1", "0", "0"], ["0", "i", "2", "0"], [0, 0, 0, 1]]
COCYCLE = {"components": [[[1, 3, "1"]], [[1, 4, 1]]]}
CERT = next(
    raw for raw in _load("degenerations")["certificates"]
    if (raw["source"], raw["target"]) == ("Z_14", "Z_10")
)
RSET = {"containments": [[1, 1, 3], [1, 4, 6]], "equations": ["c113", "c123+c213"],
        "relabel": [1, 2, 3, 4, 5]}

ALGEBRA_COMMANDS = [
    ("identity",), ("identity", "--id", "associative"), ("ann",), ("powers",),
    ("der",), ("der", "--method", "modular"), ("h2",), ("fingerprint",),
    ("fingerprint", "--method", "modular"),
]
REFS = [
    "Z_02^3", "Z_02^a=1/3", "Z_30^2", "Z_27", "N_01", "zero^3", "V_4+1^lam=2,mu=5",
    "[N1]^2_08", "Z_10^b=-2",
]
LABELS = ["Z_27 -> Z_28", "Z_14 -> Z_10", "Z_04 -> Z_01"]
JUNK = st.one_of(
    st.sampled_from([
        None, True, False, 0, 1, -1, 2, 7, 10**6, 2.0, 0.5, "", "1", "2", "-1", "x",
        "b", "t", "i", "1/0", "1e999999", "t^(1/0)", "(" * 40, "2^(2^30)", [], {}, [1],
        ["1"], [[1, 1, 1]], {"1": "1"}, {"id": "Z_02"}, {"diag": ["1"]},
    ]),
    st.integers(-3, 9),
    st.text(alphabet="01tiab+-*/^()_=, ", max_size=10),
)

SCALAR, INDEX, LABEL = "scalar", "index", "label"
_settings = settings(max_examples=25, database=None, derandomize=True)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, path + (key,))


@st.composite
def mutations(draw, seed):
    """(op, path, value): replace the node at path by value, delete it, or
    rename the object key at the end of path to value."""
    path = draw(st.sampled_from(list(_paths(seed))))
    ops = ["replace"] + (["delete"] if path else [])
    if path and isinstance(_at(seed, path[:-1]), dict):
        ops.append("rename")
    op = draw(st.sampled_from(ops))
    if op == "rename":
        names = [k for k in ("zz", "", "1", "b2", "t") if k != path[-1]]
        return op, path, draw(st.sampled_from(names))
    return op, path, draw(JUNK) if op == "replace" else None


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _apply(seed, mutation):
    op, path, value = mutation
    if not path:
        return value
    doc = copy.deepcopy(seed)
    parent, key = _at(doc, path[:-1]), path[-1]
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    else:
        parent[value] = parent.pop(key)
    return doc


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == "", err
    return code


def _run_with(doc, *argv):
    """Run argv with the JSON document written to a file in place of {}."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        return _run(*(str(path) if a == "{}" else a for a in argv))


def _expects_data_error(mutation, slots) -> bool:
    """Is the mutation a wrong type at a typed slot of the seed?"""
    op, path, value = mutation
    kind = slots(path)
    if op != "replace" or kind is None:
        return False
    if kind == SCALAR:
        return not isinstance(value, str) and type(value) is not int
    if kind == LABEL:
        return bool(value) and not isinstance(value, str)
    return type(value) is not int


def _algebra_slots(path):
    if path == ("label",):
        return LABEL
    if path == ("dim",) or (len(path) == 3 and path[0] == "entries" and path[2] < 3):
        return INDEX
    return SCALAR if len(path) == 3 and path[0] == "entries" else None


def _matrix_slots(path):
    return SCALAR if len(path) == 2 else None


def _cocycle_slots(path):
    if len(path) == 4 and path[0] == "components":
        return SCALAR if path[3] == 2 else INDEX
    return None


def _cert_slots(path):
    if path == ("label",):
        return LABEL
    entry = len(path) == 3 and path[0] in ("basis", "samples")
    if entry or path in (("index",), ("target_param",)):
        return SCALAR
    return INDEX if path == ("target_pad",) else None


def _rset_slots(path):
    if len(path) == 3 and path[0] == "containments" or len(path) == 2 and path[0] == "relabel":
        return INDEX
    return None


@_settings
@given(st.sampled_from(ALGEBRA_COMMANDS), mutations(ALGEBRA))
@example(("ann",), ("replace", ("entries", 0, 0), 1.0))
@example(("ann",), ("replace", ("entries", 0, 0), True))
@example(("ann",), ("replace", ("entries",), 5))
@example(("identity",), ("replace", ("entries", 1), [1, 2]))
@example(("ann",), ("replace", ("label",), ["x"]))
def test_algebra_file(command, mutation):
    code = _run_with(_apply(ALGEBRA, mutation), *command, "--file", "{}")
    if _expects_data_error(mutation, _algebra_slots):
        assert code == 2


@_settings
@given(mutations(MATRIX))
def test_act_matrix_file(mutation):
    code = _run_with(_apply(MATRIX, mutation), "act", "--algebra", "N_02", "--matrix", "{}")
    if _expects_data_error(mutation, _matrix_slots):
        assert code == 2


@_settings
@given(mutations(COCYCLE))
def test_extend_cocycle_file(mutation):
    code = _run_with(_apply(COCYCLE, mutation), "extend", "--algebra", "N_01", "--file", "{}")
    if _expects_data_error(mutation, _cocycle_slots):
        assert code == 2


@_settings
@given(mutations(CERT))
@example(("replace", ("samples", 0, "b"), True))
@example(("replace", ("samples", 0, "b"), 2.0))
@example(("replace", ("samples", 0, "b"), None))
@example(("rename", ("samples", 0, "b"), "zz"))
@example(("replace", ("target_param",), 2.0))
@example(("replace", ("label",), ["x"]))
def test_degenerate_certificate_file(mutation):
    code = _run_with(_apply(CERT, mutation), "degenerate", "--cert", "{}")
    op, path, _ = mutation
    if _expects_data_error(mutation, _cert_slots):
        assert code == 2
    if len(path) == 3 and path[0] == "samples" and op in ("rename", "delete"):
        assert code == 2


@_settings
@given(mutations(RSET))
def test_rset_file(mutation):
    code = _run_with(_apply(RSET, mutation), "rset", "--algebra", "Z_27", "--file", "{}")
    if _expects_data_error(mutation, _rset_slots):
        assert code == 2


@st.composite
def references(draw, refs):
    """One of refs with up to two characters inserted, deleted or replaced."""
    ref = draw(st.sampled_from(refs))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(ref)))
        ch = draw(st.sampled_from("^=,/-+()_0123abtZ "))
        ref = draw(st.sampled_from([ref[:at] + ch + ref[at:], ref[:at] + ref[at + 1:],
                                    ref[:at] + ch + ref[at + 1:]]))
    return ref


@_settings
@given(references(REFS), st.sampled_from([
    ("ann", "--algebra"), ("powers", "--algebra"), ("der", "--algebra"),
    ("fingerprint", "--algebra"), ("extend", "--child"), ("rset", "--row"),
    ("catalog", "get", "--algebra"),
]))
@example("Z_02^a1/3", ("ann", "--algebra"))
@example("Z_02^t", ("catalog", "get", "--algebra"))
@example("Z_10^b=-2", ("extend", "--child"))
def test_references(ref, command):
    _run(*command[:-1], f"{command[-1]}={ref}")


@_settings
@given(references(LABELS))
def test_certificate_labels(label):
    _run("degenerate", f"--label={label}")

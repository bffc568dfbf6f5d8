"""Every public top-level name in the package has a caller outside the tests.

A public (non-underscore) function or class of `src/krylovlab` must be
referenced, as a name or an attribute in the syntax tree (docstrings do not
count), by some other definition or module-level statement of the package
(`__init__.py` re-exports do not count) or by the benchmark scripts in
`bench/`.  Paper formulas and reference cross-checks that only the tests
exercise are named in ALLOWED.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "krylovlab"

ALLOWED = {
    # paper formulas under test
    "householder_moment_sums", "nib", "nib_asymptotic", "xi_from_maximum",
    # independent cross-checks of the Householder path
    "lanczos_tridiagonalize", "overlap_recurrence",
}


def referenced_names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def scopes():
    """(module, top-level name or None, names referenced there) over the package
    (without __init__.py) and the benchmark scripts."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            name = getattr(stmt, "name", None)
            out.append((path.stem, name, referenced_names(stmt)))
    for path in sorted((ROOT / "bench").glob("*.py")):
        if not path.name.startswith("test_"):
            out.append((f"bench/{path.name}", None, referenced_names(ast.parse(path.read_text()))))
    return out


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                yield path.stem, stmt.name


def test_every_public_name_has_a_caller_outside_the_tests():
    all_scopes = scopes()
    defined = list(public_definitions())
    assert ALLOWED <= {name for _, name in defined}
    unused = [f"{module}.{name}" for module, name in defined
              if name not in ALLOWED
              and not any(name in refs for m, owner, refs in all_scopes
                          if (m, owner) != (module, name))]
    assert unused == []

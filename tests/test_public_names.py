"""Every public name in the package has a caller outside the tests.

A public (non-underscore) function or class of `src/krylovlab`, or a public
method of such a class, must be referenced, as a name or an attribute in the
syntax tree (docstrings do not count), by some other definition or
module-level statement of the package (`__init__.py` re-exports do not count;
a method's own class counts, its own body does not) or by the benchmark
scripts in `bench/`.  Paper formulas and reference cross-checks that only the
tests exercise are named in ALLOWED.

The package has one dense reduction, LAPACK `sytrd`: no module names a dense
symmetric eigensolver, none imports from `scipy.linalg`, and the symbols the OpenBLAS
binding loads name no dense eigensolver either.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "krylovlab"

ALLOWED = {
    # paper formulas under test
    "householder_moment_sums", "nib", "nib_asymptotic", "xi_from_maximum",
    # independent cross-check of the Householder path
    "lanczos_tridiagonalize",
}

DENSE_EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals", "syevd", "syev", "syevr"}
LAPACK_EIGENSOLVERS = {"dsyev", "dsyevd", "dsyevr", "dsyevx"}


def referenced_names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def scopes():
    """(module, top-level name or None, member name or None, names referenced there)
    over the package (without __init__.py) and the benchmark scripts; a class is split
    into its members, and its bases and decorators form the member None."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            name = getattr(stmt, "name", None)
            if not isinstance(stmt, ast.ClassDef):
                out.append((path.stem, name, None, referenced_names(stmt)))
                continue
            header = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
            out.append((path.stem, name, None, set().union(*map(referenced_names, header))))
            out += [(path.stem, name, getattr(item, "name", None), referenced_names(item))
                    for item in stmt.body]
    for path in sorted((ROOT / "bench").glob("*.py")):
        if not path.name.startswith("test_"):
            out.append((f"bench/{path.name}", None, None,
                        referenced_names(ast.parse(path.read_text()))))
    return out


def public_definitions():
    """(module, class or None, name) of each public function, class and class method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            yield path.stem, None, stmt.name
            if isinstance(stmt, ast.ClassDef):
                yield from ((path.stem, stmt.name, item.name) for item in stmt.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def test_every_public_name_has_a_caller_outside_the_tests():
    all_scopes = scopes()
    defined = list(public_definitions())
    assert ALLOWED <= {name for _, owner, name in defined if owner is None}
    assert {name for _, owner, name in defined if owner} >= \
        {"to_dict", "initial", "half_width", "columns"}

    def own_scope(module, owner, name, scope):
        m, top, member, _ = scope
        if owner is None:                   # a function or a class, with all its members
            return (m, top) == (module, name)
        return (m, top, member) == (module, owner, name)

    unused = [".".join(filter(None, (module, owner, name))) for module, owner, name in defined
              if name not in ALLOWED
              and not any(name in scope[3] for scope in all_scopes
                          if not own_scope(module, owner, name, scope))]
    assert unused == []


def test_sytrd_is_the_only_dense_reduction():
    # a routine may be named, attributed, imported, or fetched by its LAPACK name as a
    # string; docstrings do not count
    named, linalg = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and ast.get_docstring(node) is not None}
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
                   and isinstance(n.value, str) and id(n) not in docstrings}
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        used = referenced_names(tree) | strings | {a.name for n in imports for a in n.names}
        named[path.stem] = sorted(used & DENSE_EIGENSOLVERS)
        modules = [n.module for n in imports if isinstance(n, ast.ImportFrom)]
        modules += [a.name for n in imports if isinstance(n, ast.Import) for a in n.names]
        modules += [f"scipy.{a.name}" for n in imports if getattr(n, "module", None) == "scipy"
                    for a in n.names]
        linalg += [(path.stem, m) for m in modules if (m or "").startswith("scipy.linalg")]
    assert {module: names for module, names in named.items() if names} == {}
    assert linalg == []


def test_the_openblas_binding_loads_no_dense_eigensolver():
    from krylovlab import _openblas
    routines = {name.removeprefix("scipy_").removesuffix("_") for name in _openblas._EXPORTS}
    assert routines >= {"dsytrd", "dormqr", "dstevd", "dgemm", "dgemv", "dnrm2"}
    assert not routines & LAPACK_EIGENSOLVERS

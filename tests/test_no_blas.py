"""wqed makes no BLAS or LAPACK call: its contractions are a handful of
terms per row, where OpenBLAS's threads cost more than they save, so they
are ufunc reductions or einsum, and its Gauss-Legendre rules are literal
tables, since numpy's leggauss solves an eigenproblem with LAPACK.  The
numpy helpers that reach BLAS or LAPACK underneath count too: polyfit
(lstsq), roots (eigvals), cov and corrcoef (dot).  The rule is read off
the source's syntax."""

import ast
from pathlib import Path

import wqed

SRC = Path(wqed.__file__).parent
BLAS_NAMES = {"matmul", "dot", "vdot", "inner", "tensordot", "linalg", "polynomial",
              "polyfit", "roots", "cov", "corrcoef"}
LAPACK_MODULES = ("numpy.linalg", "numpy.polynomial")


def blas_uses(text: str) -> list[tuple[int, str]]:
    """(line, spelling) of each BLAS entry in the source `text`, in line
    order: the @ operator, np.<name> or numpy.<name> for the BLAS_NAMES,
    imports from the LAPACK_MODULES, leggauss under any spelling, and
    einsum's optimize, which hands the contraction to tensordot."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif ((isinstance(node, ast.Attribute) and node.attr == "leggauss")
              or (isinstance(node, ast.Name) and node.id == "leggauss")):
            found.append((node.lineno, "leggauss"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{name}" for name in names]
            found += [(node.lineno, f"{module} import") for module in LAPACK_MODULES
                      if any(name.startswith(module) for name in names)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "einsum"
              and any(kw.arg == "optimize" for kw in node.keywords)):
            found.append((node.lineno, "einsum(optimize=...)"))
    return sorted(found)


def test_scan_finds_each_blas_spelling():
    text = ("y = a @ b\n"
            "y @= b\n"
            "np.matmul(a, b, out=y)\n"
            "np.linalg.solve(a, b)\n"
            "from numpy import linalg\n"
            "np.einsum('ij,j->i', a, b, optimize=True)\n"
            "np.einsum('ij,j->i', a, b)\n"
            "(a * b).sum(axis=1)\n"
            "x, w = np.polynomial.legendre.leggauss(16)\n"
            "numpy.polynomial.Legendre.basis(3)\n"
            "from numpy.polynomial.legendre import leggauss\n"
            "import numpy.polynomial\n"
            "x, w = leggauss(6)\n"
            "slope = np.polyfit(x, y, 1)[0]\n"
            "np.roots([1.0, 0.0, -1.0])\n"
            "numpy.cov(x, y)\n"
            "np.corrcoef(x, y)\n")
    assert blas_uses(text) == [
        (1, "@"), (2, "@"), (3, "np.matmul"), (4, "np.linalg"),
        (5, "numpy.linalg import"), (6, "einsum(optimize=...)"),
        (9, "leggauss"), (9, "np.polynomial"), (10, "numpy.polynomial"),
        (11, "numpy.polynomial import"), (12, "numpy.polynomial import"), (13, "leggauss"),
        (14, "np.polyfit"), (15, "np.roots"), (16, "numpy.cov"), (17, "np.corrcoef")]


def test_wqed_makes_no_blas_call():
    found = {path.name: uses for path in sorted(SRC.glob("*.py"))
             if (uses := blas_uses(path.read_text()))}
    assert found == {}

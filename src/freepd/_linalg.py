"""The SciPy routines freepd calls (eigenvalues alone come from NumPy),
with SciPy imported at the first call.

Importing ``scipy.linalg`` costs more than the rest of ``import freepd.cli``
together (it pulls in ``numpy.f2py`` and ``numpy.testing``), and ``freepd
check`` and ``freepd surgery`` never reach it.  So this module binds nothing
at import.  The first read of one of ROUTINES runs the module ``__getattr__``
(PEP 562), which imports SciPy once and binds every routine into this
module's namespace; from then on a read such as ``_linalg.zpotrf`` is a
plain attribute read that never reaches the hook again.
"""

ROUTINES = ("zpotrf", "ztrsv", "zhegvd", "null_space", "toeplitz")


def __getattr__(name):
    if name not in ROUTINES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.linalg
    from scipy.linalg import blas, lapack

    globals().update(
        zpotrf=lapack.zpotrf,
        ztrsv=blas.ztrsv,
        zhegvd=lapack.zhegvd,
        null_space=scipy.linalg.null_space,
        toeplitz=scipy.linalg.toeplitz,
    )
    return globals()[name]

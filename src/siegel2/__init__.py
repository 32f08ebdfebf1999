"""Exact arithmetic in the graded ring of degree-2 Siegel modular forms.

The package builds the five ring generators X4, X6, X10, X12, X35 as
trace-truncated Fourier expansions over exact rationals, provides the
(trace, m, r) index order and the p-minimum matrix calculus, finite
vanishing criteria for even and odd weight with machine-checkable
certificates, the theta operator a(T) -> det(T) a(T), and an end-to-end
verification that every coefficient of X35 at an index whose determinant
is prime to 23 vanishes mod 23.
"""

"""bwlab: exact computational algebra for Barnes-Wall lattices and friends.

Submodules:
    f2linalg  bit-packed linear algebra over GF(2), first-order Reed-Muller code
    exlat     exact lattice engine (HNF, SNF, duals, LLL, norm enumeration)
    bw        the Barnes-Wall constructions BW16, BW32 and the index-2^16 tower
    f2quad    quadratic forms over GF(2): types, singular vectors, subspaces
    srg       strongly regular graph certification and parameter feasibility
    gord      factored-integer arithmetic and classical/exceptional group orders
    xrep      extraspecial 2-groups as signed permutations, character norms
    qser      exact integer q-expansions (E4, Euler products, j, its cube root)
    verify    the consolidated check registry and machine-readable report
    cli       command-line frontend
"""

__version__ = "0.1.0"

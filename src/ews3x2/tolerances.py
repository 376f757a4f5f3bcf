"""Every numeric threshold of the package, each stated as absolute or relative.

The estimation method is a chain of sign tests, so these values are its policy.
"""

#: absolute: a denominator or gap below this is zero; rates closer than this tie
ZERO_TOL = 1e-12
#: absolute: ratio points closer than this to a subregion border are Boundary
BORDER_TOL = 1e-9
#: relative to max(1, chord width) in S' and max(1, |U'|) in U': chord slack
CHORD_TOL = 1e-8
#: absolute: structural residuals of user-supplied economy data
STRUCT_TOL = 1e-9
#: absolute: algebraic identities evaluated in double precision
IDENT_TOL = 1e-12
#: absolute: strictly concave: share-weighted Allen eigenvalues off span(1) <= -tol
CONCAVITY_TOL = 1e-10
#: absolute: a dense solve whose 1-norm condition number exceeds this is singular
COND_LIMIT = 1e12
#: relative to (p, V): Newton residual below which a member has converged
NEWTON_TOL = 1e-12
#: Newton iterations before NonConvergence is raised
NEWTON_MAX_ITER = 100
#: relative to the observation's rate scale: dead band for signs of measured rates
DEAD_BAND = 1e-10
#: relative to the rate scale: residual of measured-data consistency checks
DATA_TOL = 1e-6
#: absolute: floor of a rate scale, so that an all-zero observation has one
SCALE_FLOOR = 1e-300

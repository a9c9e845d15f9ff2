"""Classical simulation of non-Gaussian optics via Gaussian superpositions.

States are decomposed into pure Gaussian terms with exactly tracked relative
phases; Born probabilities follow either the exact rank-quadratic evaluator
or the sparsification plus fast-norm pipeline that scales linearly with the
decomposition's l1 weight.
"""

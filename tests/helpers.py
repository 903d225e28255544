"""Helpers shared by several test modules."""


def residual_scale(pair, mu, lam):
    """Natural scale of the residual F at (mu, lam): |A| + |mu| |C| + |lam| + 1."""
    return pair.norm_a + abs(mu) * pair.norm_c + abs(lam) + 1.0

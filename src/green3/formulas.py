"""The Krein-type, mixed and difference resolvent formulas, with their one pole rule.

They hold for a quasi boundary triple of any symmetric operator; the disk modes
(``coupling._ModeScalars``) and the 1D model (``interval_model``) are two
realizations.  A realization supplies M± (scalar, or with a leading mode axis),
γ at the check points of both sides with a side index (0 for +, 1 for −), the
pairings γ₊*φ and γ₋*φ of each column φ (a delta at each sample radius on the
disk, the five bumps in 1D), and the decoupled resolvent on the columns as one
block-diagonal array, each behind the mode axis if there is one.  A formula row
checks something only when its left side comes from a route that shares none
of the right side's discretization: the disk's free kernel I_m(κr_<)K_m(κr_>),
the 1D coupled kernel.  The pole rule guards M₊ + M₋ and M₋: a pole lies below
1e-10·(|M₊| + |M₋|).
"""

from __future__ import annotations

import numpy as np

from .errors import SpectralPoleError

_POLE = 1e-10  # the pole rule of the module docstring
_POLE_ERROR = "{} = {:.3g} makes z a pole of the resolvent formula"


def _poles(value, m_plus, m_minus):
    """Where ``value`` is a pole by the one rule; NaN is none."""
    return np.abs(value) < _POLE * (np.abs(m_plus) + np.abs(m_minus))


def _pivot(name, value, m_plus, m_minus):
    """``value`` unless an entry is a pole by the one rule, the first of
    which raises; NaN passes on."""
    poles = np.ravel(_poles(value, m_plus, m_minus))
    if poles.any():
        raise SpectralPoleError(_POLE_ERROR.format(name, np.ravel(value)[poles.argmax()]))
    return value


def _krein(m_plus, m_minus, gamma, pairings, decoupled):
    """R₀₊ ⊕ R₀₋ − γ(M₊ + M₋)⁻¹γ* on the columns; ``decoupled`` is R₀₊ ⊕ R₀₋."""
    denom = _pivot("M₊ + M₋", m_plus + m_minus, m_plus, m_minus)
    return decoupled - (gamma[..., :, None] * pairings.sum(axis=-2)[..., None, :]
                        / np.asarray(denom)[..., None, None])


def _mixed(m_plus, m_minus, side, gamma, pairings, decoupled):
    """R₀₊ ⊕ R₁₋ + γ̂Σγ̂* on the columns, with γ̂ = diag(γ₊, γ₋M₋⁻¹) and
    Σ = −[[M₊, 1], [1, −M₋⁻¹]]⁻¹ (one stacked inverse over the modes);
    ``decoupled`` is R₀₊ ⊕ R₁₋ (Neumann on −)."""
    _pivot("M₊ + M₋", m_plus + m_minus, m_plus, m_minus)  # Σ's determinant is −(M₊+M₋)/M₋
    _pivot("M₋", m_minus, m_plus, m_minus)
    m_plus, m_minus, inverse = np.broadcast_arrays(m_plus, m_minus, -1.0 / m_minus)
    one = np.ones_like(m_plus)
    sigma = -np.linalg.inv(np.stack([m_plus, one, one, inverse], axis=-1)
                           .reshape(m_plus.shape + (2, 2)))
    divisor = np.stack([one, m_minus], axis=-1)  # γ̂ and γ̂* divide the − side by M₋
    hat = gamma / divisor[..., side]
    return decoupled + hat[..., :, None] * (sigma @ (pairings / divisor[..., :, None]))[..., side, :]


def _difference(m_plus, m_minus, gamma_minus, pairing_minus):
    """γ₋M₋⁻¹γ₋* on the columns, the right side of R₀₋ − R₁₋; ``gamma_minus``
    is γ₋ at the rows, zero on + rows."""
    pivot = _pivot("M₋", m_minus, m_plus, m_minus)
    return (gamma_minus[..., :, None] * pairing_minus[..., None, :]
            / np.asarray(pivot)[..., None, None])

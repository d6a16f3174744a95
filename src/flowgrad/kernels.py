"""Element-matrix kernels, each one matrix product with a reference tensor.

An element matrix is a sum over quadrature points of a field value times a
fixed product of shape-function tables (Kirby & Logg, *A compiler for
variational forms*, ACM TOMS 2006).  Flattening each (4, 4) product to 16
entries gives a (4 points, 16 entries) reference tensor T, so a kernel is

    forward:  out = ((field * wdet) @ T).reshape(n_elems, 4, 4)
    backward: gfield = (gelem.reshape(n_elems, 16) @ T.T) * wdet

and the backward is the transpose of the forward, since every kernel is
linear in its field.  T is built from the tables passed in, so the kernels
keep the tables as arguments.

Shapes: ``coefq``/``uq``/``vq``/``gq`` are per-element quadrature values
(n_elems, 4); element matrices are (n_elems, 4, 4); ``wdet`` is (4,) and the
shape tables ``n``/``dndx``/``dndy`` are (4 points, 4 nodes).
"""

__all__ = [
    "diffusion_fwd", "diffusion_bwd",
    "advection_fwd", "advection_bwd",
    "coefmass_fwd", "coefmass_bwd",
]


def _outer(a, b):
    """Reference tensor T[q, 4 i + j] = a[q, i] b[q, j]."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def _forward(field, wdet, tensor):
    return ((field * wdet) @ tensor).reshape(-1, 4, 4)


def _backward(gelem, wdet, tensor):
    return (gelem.reshape(-1, 16) @ tensor.T) * wdet


# diffusion: out[e,i,j] = sum_q wdet[q] coefq[e,q] (dndx[q,i] dndx[q,j]
#                                                   + dndy[q,i] dndy[q,j])

def diffusion_fwd(coefq, wdet, dndx, dndy):
    return _forward(coefq, wdet, _outer(dndx, dndx) + _outer(dndy, dndy))


def diffusion_bwd(gelem, wdet, dndx, dndy):
    return _backward(gelem, wdet, _outer(dndx, dndx) + _outer(dndy, dndy))


# advection: out[e,i,j] = sum_q wdet[q] n[q,i] (uq[e,q] dndx[q,j]
#                                               + vq[e,q] dndy[q,j])

def advection_fwd(uq, vq, wdet, n, dndx, dndy):
    return (_forward(uq, wdet, _outer(n, dndx))
            + _forward(vq, wdet, _outer(n, dndy)))


def advection_bwd(gelem, wdet, n, dndx, dndy):
    return (_backward(gelem, wdet, _outer(n, dndx)),
            _backward(gelem, wdet, _outer(n, dndy)))


# coefficient-weighted mass: out[e,i,j] = sum_q wdet[q] gq[e,q] n[q,i] n[q,j]

def coefmass_fwd(gq, wdet, n):
    return _forward(gq, wdet, _outer(n, n))


def coefmass_bwd(gelem, wdet, n):
    return _backward(gelem, wdet, _outer(n, n))

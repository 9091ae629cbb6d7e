/*
 * C kernels for vaxgame: the jump-chain loop of chain.simulate and the
 * certificate draws of attractor._draw_offsets.
 *
 * Both are transcriptions of the Python loops they replace and must stay
 * bit-exact with them: every floating-point expression keeps the Python
 * operation order, and the library is built with -ffp-contract=off (no
 * fused multiply-add) and never with -ffast-math.  vaxgame._native builds
 * this file at first use and falls back to the Python loops when it cannot.
 */

#include <math.h>
#include <stdint.h>

#include "numpy/random/distributions.h"

/* Response families, in the order of the keys of vaxgame.policy._RESPONSE. */
enum { FC, FR, VFC1, VFC2, VFC2_THETA, STATIC };

/* Event law of one simulate() call: the rates and the resolved response. */
typedef struct {
    double lam, r, nu, b, d, d_e;
    int64_t family; /* a base family above */
    int64_t mutant; /* nonzero: mix the base with a static p at weight eps */
    double beta, gamma, q, eps, p;
} law_t;

/* Chain state carried across calls, one call per block of uniforms. */
typedef struct {
    int64_t n, s, i, v, k;
    double eta, inv_eta, min_eta, max_jump;
    int64_t bi;    /* next unused uniform of the block */
    int64_t n_rec; /* records written by this call */
} chain_t;

enum {
    CHAIN_DONE,
    CHAIN_FROZEN,
    CHAIN_NEED_BLOCK,
    CHAIN_DEGENERATE,
    CHAIN_EXTINCT,
    CHAIN_RECORDS_FULL
};

/* Python's min(1.0, x): x when x < 1, else 1 (NaN included). */
static double cap1(double x) { return x < 1.0 ? x : 1.0; }

/* Acceptance probability q = min(1, q~); a mutant mixes its clamped base. */
static double accept(const law_t *w, double theta, double psi)
{
    double q;
    switch (w->family) {
    case FC:
        q = cap1(w->beta * psi);
        break;
    case FR:
        q = cap1(w->beta * psi * (1.0 - psi));
        break;
    case VFC1:
        q = cap1(w->beta * theta * psi);
        break;
    case VFC2:
        q = theta > w->gamma ? cap1(w->beta * psi) : 0.0;
        break;
    case VFC2_THETA:
        q = theta > w->gamma ? cap1(w->beta * theta) : 0.0;
        break;
    default: /* STATIC */
        q = w->q;
        break;
    }
    if (w->mutant)
        q = (1.0 - w->eps) * q + w->eps * w->p;
    return q;
}

/* accept() for the tests, which compare it with policy.accept_fn. */
double vaxgame_accept(const law_t *w, double theta, double psi)
{
    return accept(w, theta, psi);
}

/*
 * The bin edges of one epoch at (theta, psi): the cumulative event masses
 * c1..c7, in the order of chain.Event, and their total varrho in c[7].
 * A copy of chain.event_edges, with its grouping of every sum.
 */
static inline void event_edges(const law_t *w, double theta, double psi, double c[8])
{
    const double phi = 1.0 - theta - psi;
    const double q = accept(w, theta, psi);
    const double t_inf = w->lam * theta * phi;
    const double t_dec = w->nu * phi;
    const double t_vac = q * t_dec;
    c[0] = t_inf;
    c[1] = c[0] + w->r * theta;
    c[2] = c[1] + (w->d + w->d_e) * theta;
    c[3] = c[2] + t_vac;
    c[4] = c[3] + (t_dec - t_vac);
    c[5] = c[4] + w->b;
    c[6] = c[5] + w->d * psi;
    c[7] = c[6] + w->d * phi;
}

/* event_edges() for the tests, which compare it with chain.event_edges. */
void vaxgame_edges(const law_t *w, double theta, double psi, double *out)
{
    event_edges(w, theta, psi, out);
}

/*
 * Advance the chain until k reaches max_steps, the freeze fires, the total
 * rate is not positive, the population dies out, the block of uniforms is
 * used up or the rec_cap record slots are full.  Records every epoch that
 * is a multiple of stride.  Returns one of the CHAIN_* codes; on
 * CHAIN_NEED_BLOCK and CHAIN_RECORDS_FULL the state is the one before the
 * next epoch, and a call with a new block or new record arrays goes on.
 */
int vaxgame_chain(chain_t *c, const law_t *w, int64_t max_steps, double delta,
                  int64_t stride, const double *buf, int64_t n_buf,
                  int64_t rec_cap, int64_t *rec_k, double *rec_theta,
                  double *rec_psi, double *rec_eta)
{
    int64_t n = c->n, s = c->s, i = c->i, v = c->v, k = c->k, bi = c->bi;
    double eta = c->eta, inv_eta = c->inv_eta;
    double min_eta = c->min_eta, max_jump = c->max_jump;
    int64_t n_rec = 0;
    int code = CHAIN_DONE;

    while (k < max_steps) {
        if (eta <= delta) {
            code = CHAIN_FROZEN;
            break;
        }
        if (n_rec == rec_cap) {
            code = CHAIN_RECORDS_FULL;
            break;
        }
        double e[8];
        event_edges(w, (double)i / (double)n, (double)v / (double)n, e);
        if (e[7] <= 0.0) {
            code = CHAIN_DEGENERATE;
            break;
        }
        if (bi == n_buf) {
            code = CHAIN_NEED_BLOCK;
            break;
        }
        const double x = buf[bi++] * e[7];

        if (x < e[0]) {
            s -= 1;
            i += 1;
        } else if (x < e[1]) {
            i -= 1;
            s += 1;
        } else if (x < e[2]) {
            i -= 1;
            n -= 1;
        } else if (x < e[3]) {
            s -= 1;
            v += 1;
        } else if (x < e[4]) {
            /* declined vaccination */
        } else if (x < e[5]) {
            s += 1;
            n += 1;
        } else if (x < e[6]) {
            v -= 1;
            n -= 1;
        } else if (s > 0) { /* guard against a 1-ulp overshoot at the last boundary */
            s -= 1;
            n -= 1;
        }
        if (n == 0) {
            code = CHAIN_EXTINCT;
            break;
        }

        k += 1;
        eta = (double)n / (double)k;
        const double new_inv = 1.0 / eta;
        const double jump = fabs(new_inv - inv_eta) * (double)k;
        if (jump > max_jump)
            max_jump = jump;
        inv_eta = new_inv;
        if (eta < min_eta)
            min_eta = eta;

        if (k % stride == 0) {
            rec_k[n_rec] = k;
            rec_theta[n_rec] = (double)i / (double)n;
            rec_psi[n_rec] = (double)v / (double)n;
            rec_eta[n_rec] = eta;
            n_rec += 1;
        }
    }

    c->n = n, c->s = s, c->i = i, c->v = v, c->k = k, c->bi = bi;
    c->eta = eta, c->inv_eta = inv_eta;
    c->min_eta = min_eta, c->max_jump = max_jump;
    c->n_rec = n_rec;
    return code;
}

/*
 * The draws of `attempts` certificate attempts: each takes a normal
 * direction (three normal(0, 1) draws) and then, unless every square of it
 * is 0.0, a uniform whose cube root scales the radius.  Writes the kept
 * directions (row-major, three per row) and cube roots; returns their count.
 * The caller holds the bit generator's lock.
 */
int64_t vaxgame_draw(bitgen_t *bitgen, int64_t attempts, double *directions,
                     double *cube_roots)
{
    int64_t kept = 0;
    for (int64_t a = 0; a < attempts; a++) {
        const double x = random_normal(bitgen, 0.0, 1.0);
        const double y = random_normal(bitgen, 0.0, 1.0);
        const double z = random_normal(bitgen, 0.0, 1.0);
        if (x * x == 0.0 && y * y == 0.0 && z * z == 0.0)
            continue;
        directions[3 * kept] = x;
        directions[3 * kept + 1] = y;
        directions[3 * kept + 2] = z;
        cube_roots[kept] = pow(random_standard_uniform(bitgen), 1.0 / 3.0);
        kept += 1;
    }
    return kept;
}

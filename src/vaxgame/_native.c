/*
 * C kernels for vaxgame: the jump-chain loop of chain.simulate, one DOP853
 * segment of ode.integrate (ode._python_segment), the certificate draws of
 * attractor._draw_offsets, two loops over rows of states (the field g of
 * ode.field_rows and the response at a given cap, which the certificates'
 * side test takes uncapped as the propensity q~) and the %.17g row
 * formatter of the path and trajectory CSVs.
 *
 * All of them are transcriptions of the Python code they replace and must
 * stay bit-exact with it: every floating-point expression keeps the Python
 * operation order, and the library is built with -ffp-contract=off (no
 * fused multiply-add) and never with -ffast-math.  The ODE field keeps
 * ode.varrho's grouping of the event masses, not the chain's event_edges.
 * vaxgame._native builds this file at first use and falls back to the
 * Python code when it cannot.
 */

#include <float.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

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

/* Python's min(cap, x): x when x < cap, else cap (NaN included, so min(inf, nan) is inf). */
static double capped(double x, double cap) { return x < cap ? x : cap; }

/*
 * The response of policy._RESPONSE capped at cap: 1 gives the acceptance
 * probability q = min(1, q~), INFINITY the propensity q~.  A mutant mixes
 * its base, capped the same way, with its static p.
 */
static double response(const law_t *w, double theta, double psi, double cap)
{
    double q;
    switch (w->family) {
    case FC:
        q = capped(w->beta * psi, cap);
        break;
    case FR:
        q = capped(w->beta * psi * (1.0 - psi), cap);
        break;
    case VFC1:
        q = capped(w->beta * theta * psi, cap);
        break;
    case VFC2:
        q = theta > w->gamma ? capped(w->beta * psi, cap) : 0.0;
        break;
    case VFC2_THETA:
        q = theta > w->gamma ? capped(w->beta * theta, cap) : 0.0;
        break;
    default: /* STATIC */
        q = w->q;
        break;
    }
    if (w->mutant)
        q = (1.0 - w->eps) * q + w->eps * w->p;
    return q;
}

/* The acceptance probability q = min(1, q~), as policy.accept_fn gives it. */
static double accept(const law_t *w, double theta, double psi)
{
    return response(w, theta, psi, 1.0);
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

        /* at S = 0 a rounded phi > 0 leaves the infection and vaccination
           bins a width of about 1e-17: a draw there changes nothing */
        if (x < e[0]) {
            if (s > 0) {
                s -= 1;
                i += 1;
            }
        } else if (x < e[1]) {
            i -= 1;
            s += 1;
        } else if (x < e[2]) {
            i -= 1;
            n -= 1;
        } else if (x < e[3]) {
            if (s > 0) {
                s -= 1;
                v += 1;
            }
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

/*
 * The mean-field field g of ode.field and one DOP853 segment of
 * ode.integrate, transcribed from scipy's DOP853 solver to scalar C.
 * ode._python_segment does the same arithmetic in Python; every sum runs
 * over the stages in order, from the first product on.
 */

enum {
    ODE_DONE,
    ODE_EVENT,
    ODE_TOO_SMALL,
    ODE_RECORDS_FULL,
    ODE_DEGENERATE,
    ODE_NO_ROOT
};

/* One segment: its settings, then the solver state carried across calls. */
typedef struct {
    double t_bound, rtol, atol;
    int64_t event; /* nonzero: stop at the first crossing of theta = gamma */
    double gamma;
    double t, h_abs;
    double y[3], f[3]; /* the state at t and g there */
    double ev;         /* the event value theta - gamma at (t, y) */
    int64_t n_rec;     /* records written by this call */
} segment_t;

#define N_STAGES 12
#define N_EXTENDED 16

/* Offsets into the DOP853 tableau, which the caller passes as ode._TABLEAU:
   A (N_EXTENDED x N_EXTENDED, row-major), B, E3, E5 and D (4 x N_EXTENDED). */
#define TAB_B (N_EXTENDED * N_EXTENDED)
#define TAB_E3 (TAB_B + N_STAGES)
#define TAB_E5 (TAB_E3 + N_STAGES + 1)
#define TAB_D (TAB_E5 + N_STAGES + 1)

/*
 * g at y, as ode.field computes it: project onto the simplex, floor eta,
 * ode.varrho's grouping of the total mass, and accept() for q.  Zero at
 * eta <= 0.  Returns ODE_DEGENERATE where varrho is not positive, else 0.
 */
static int field(const law_t *w, const double y[3], double g[3])
{
    double theta = y[0], psi = y[1], eta = y[2];
    if (eta <= 0.0) {
        g[0] = g[1] = g[2] = 0.0;
        return 0;
    }
    /* Python's min(max(x, 0.0), 1.0): NaN and -0.0 pass through */
    theta = 0.0 > theta ? 0.0 : theta;
    theta = 1.0 < theta ? 1.0 : theta;
    psi = 0.0 > psi ? 0.0 : psi;
    psi = 1.0 < psi ? 1.0 : psi;
    const double total = theta + psi;
    if (total > 1.0) {
        theta /= total;
        psi /= total;
    }
    eta = 1e-12 > eta ? 1e-12 : eta;
    const double phi = 1.0 - theta - psi;
    const double rho_total = w->b + w->d + w->d_e * theta + w->lam * theta * phi
                             + w->nu * phi + w->r * theta;
    if (rho_total <= 0.0)
        return ODE_DEGENERATE;
    const double q = accept(w, theta + 0.0, psi + 0.0);
    const double scale = 1.0 / (eta * rho_total);
    const double net_birth = w->b - w->d_e * theta;
    g[0] = theta * scale * (phi * w->lam - w->r - w->d_e - net_birth);
    g[1] = scale * (q * phi * w->nu - net_birth * psi);
    g[2] = (w->b - w->d - w->d_e * theta) / rho_total - eta;
    return 0;
}

/*
 * field() over n rows of states (n x 3, row-major) into out (n x 3), as
 * ode.field_rows computes them: a row with eta <= 0 gives 0, a NaN eta is
 * evaluated.  Returns the first row whose varrho is not positive, where it
 * stops, or -1.
 */
int64_t vaxgame_field_rows(const law_t *w, int64_t n, const double *ys, double *out)
{
    for (int64_t i = 0; i < n; i++)
        if (field(w, ys + 3 * i, out + 3 * i))
            return i;
    return -1;
}

/*
 * response() capped at cap at the (theta, psi) of n rows of states (n x 3,
 * row-major) into out (n): cap 1 gives policy.accept_fn's q, INFINITY
 * policy.propensity_fn's q~, the side test of the certificates.
 */
void vaxgame_response_rows(const law_t *w, int64_t n, const double *ys, double cap, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = response(w, ys[3 * i], ys[3 * i + 1], cap);
}

/* sum_{i < n} K[i] * a[i] per component, in index order (scipy uses np.dot). */
static void combine(const double K[][3], int n, const double *a, double out[3])
{
    for (int j = 0; j < 3; j++) {
        double acc = K[0][j] * a[0];
        for (int i = 1; i < n; i++)
            acc += K[i][j] * a[i];
        out[j] = acc;
    }
}

/* np.linalg.norm(x / scale): the Euclidean norm of the three quotients. */
static double norm(const double x[3], const double scale[3])
{
    const double a = x[0] / scale[0], b = x[1] / scale[1], c = x[2] / scale[2];
    return sqrt(a * a + b * b + c * c);
}

/* scipy's norm(x / scale), the RMS norm. */
static double rms(const double x[3], const double scale[3])
{
    return norm(x, scale) / sqrt(3.0);
}

/* scipy's select_initial_step for an error estimator of order 7. */
static int initial_step(const law_t *w, const segment_t *sg, double *h_out)
{
    const double interval = fabs(sg->t_bound - sg->t);
    double scale[3], y1[3], f1[3], df[3];
    for (int j = 0; j < 3; j++)
        scale[j] = sg->atol + fabs(sg->y[j]) * sg->rtol;
    const double d0 = rms(sg->y, scale), d1 = rms(sg->f, scale);
    double h0 = (d0 < 1e-5 || d1 < 1e-5) ? 1e-6 : 0.01 * d0 / d1;
    h0 = interval < h0 ? interval : h0;
    for (int j = 0; j < 3; j++)
        y1[j] = sg->y[j] + h0 * sg->f[j];
    if (field(w, y1, f1))
        return ODE_DEGENERATE;
    for (int j = 0; j < 3; j++)
        df[j] = f1[j] - sg->f[j];
    const double d2 = rms(df, scale) / h0;
    double h1;
    if (d1 <= 1e-15 && d2 <= 1e-15) {
        h1 = h0 * 1e-3;
        h1 = h1 > 1e-6 ? h1 : 1e-6;
    } else {
        h1 = pow(0.01 / (d2 > d1 ? d2 : d1), 1.0 / 8.0);
    }
    double h = 100 * h0;
    h = h1 < h ? h1 : h;
    *h_out = interval < h ? interval : h;
    return 0;
}

/*
 * Start a segment at (t, y): g there, the first step and the event value.
 * The caller sets t_bound, rtol, atol, event, gamma, t and y.
 */
int vaxgame_segment_start(segment_t *sg, const law_t *w)
{
    if (field(w, sg->y, sg->f) || initial_step(w, sg, &sg->h_abs))
        return ODE_DEGENERATE;
    sg->ev = sg->y[0] - sg->gamma;
    return 0;
}

/* The DOP853 interpolant of one step in component j at x = (t - t_old) / h. */
static double interpolate(const double F[7][3], const double y_old[3], int j, double x)
{
    double y = 0.0;
    for (int i = 0; i < 7; i++) {
        y += F[6 - i][j];
        y *= i % 2 == 0 ? x : 1 - x;
    }
    return y + y_old[j];
}

/*
 * scipy.optimize.brentq on theta(t) - gamma over [a, b], xtol = rtol =
 * 4 EPS and at most 100 iterations.  Returns 0 with the root in *root, or
 * ODE_NO_ROOT where brentq would raise (no sign change, a NaN, no
 * convergence).
 */
static int brent(const double F[7][3], const double y_old[3], double t_old,
                 double h, double gamma, double a, double b, double *root)
{
    const double tol = 4 * DBL_EPSILON;
#define EVENT_AT(t) (interpolate(F, y_old, 0, ((t) - t_old) / h) - gamma)
    double xpre = a, xcur = b, xblk = 0.0, fblk = 0.0, spre = 0.0, scur = 0.0;
    double fpre = EVENT_AT(xpre), fcur = EVENT_AT(xcur);
    if (isnan(fpre) || isnan(fcur))
        return ODE_NO_ROOT;
    if (fpre == 0) {
        *root = xpre;
        return 0;
    }
    if (fcur == 0) {
        *root = xcur;
        return 0;
    }
    if ((fpre < 0) == (fcur < 0))
        return ODE_NO_ROOT;
    for (int iter = 0; iter < 100; iter++) {
        if (fpre != 0 && fcur != 0 && (fpre < 0) != (fcur < 0)) {
            xblk = xpre;
            fblk = fpre;
            spre = scur = xcur - xpre;
        }
        if (fabs(fblk) < fabs(fcur)) {
            xpre = xcur;
            xcur = xblk;
            xblk = xpre;
            fpre = fcur;
            fcur = fblk;
            fblk = fpre;
        }
        const double delta = (tol + tol * fabs(xcur)) / 2;
        const double sbis = (xblk - xcur) / 2;
        if (fcur == 0 || fabs(sbis) < delta) {
            *root = xcur;
            return 0;
        }
        if (fabs(spre) > delta && fabs(fcur) < fabs(fpre)) {
            double stry;
            if (xpre == xblk) { /* secant */
                stry = -fcur * (xcur - xpre) / (fcur - fpre);
            } else { /* inverse quadratic */
                const double dpre = (fpre - fcur) / (xpre - xcur);
                const double dblk = (fblk - fcur) / (xblk - xcur);
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre));
            }
            const double bound = 3 * fabs(sbis) - delta;
            if (2 * fabs(stry) < (fabs(spre) < bound ? fabs(spre) : bound)) {
                spre = scur; /* good short step */
                scur = stry;
            } else {
                spre = scur = sbis;
            }
        } else {
            spre = scur = sbis;
        }
        xpre = xcur;
        fpre = fcur;
        xcur += fabs(scur) > delta ? scur : (sbis > 0 ? delta : -delta);
        fcur = EVENT_AT(xcur);
        if (isnan(fcur))
            return ODE_NO_ROOT;
    }
#undef EVENT_AT
    return ODE_NO_ROOT;
}

/* The stages K[s] of a step of size h from (sg->t, sg->y), s from `from` to `to` - 1. */
static int stages(const segment_t *sg, const law_t *w, const double *tab, double h,
                  int from, int to, double K[][3])
{
    double dy[3], y_stage[3];
    for (int s = from; s < to; s++) {
        combine(K, s, tab + s * N_EXTENDED, dy);
        for (int j = 0; j < 3; j++)
            y_stage[j] = sg->y[j] + dy[j] * h;
        if (field(w, y_stage, K[s]))
            return ODE_DEGENERATE;
    }
    return 0;
}

/*
 * One accepted DOP853 step from (sg->t, sg->y): scipy's min_step, the
 * clipping at t_bound and the step controller.  Leaves the stages in K
 * (K[N_STAGES] is g at the new state), the new state in *t_new and y_new,
 * the step in *h and the next step size in *h_abs.
 */
static int step(const segment_t *sg, const law_t *w, const double *tab, double K[][3],
                double *t_new, double y_new[3], double *h, double *h_abs)
{
    const double t = sg->t;
    const double min_step = 10 * fabs(nextafter(t, INFINITY) - t);
    int rejected = 0;
    *h_abs = sg->h_abs < min_step ? min_step : sg->h_abs;
    for (;;) {
        if (*h_abs < min_step)
            return ODE_TOO_SMALL;
        *t_new = t + *h_abs;
        if (*t_new - sg->t_bound > 0)
            *t_new = sg->t_bound;
        *h = *t_new - t;
        *h_abs = fabs(*h);

        double dy[3], scale[3], e5[3], e3[3], error_norm;
        for (int j = 0; j < 3; j++)
            K[0][j] = sg->f[j];
        if (stages(sg, w, tab, *h, 1, N_STAGES, K))
            return ODE_DEGENERATE;
        combine(K, N_STAGES, tab + TAB_B, dy);
        for (int j = 0; j < 3; j++)
            y_new[j] = sg->y[j] + *h * dy[j];
        if (field(w, y_new, K[N_STAGES]))
            return ODE_DEGENERATE;

        for (int j = 0; j < 3; j++) {
            const double a = fabs(sg->y[j]), b = fabs(y_new[j]);
            scale[j] = sg->atol + (b > a ? b : a) * sg->rtol;
        }
        combine(K, N_STAGES + 1, tab + TAB_E5, e5);
        combine(K, N_STAGES + 1, tab + TAB_E3, e3);
        double n5 = norm(e5, scale), n3 = norm(e3, scale);
        n5 *= n5;
        n3 *= n3;
        if (n5 == 0 && n3 == 0)
            error_norm = 0.0;
        else
            error_norm = fabs(*h) * n5 / sqrt((n5 + 0.01 * n3) * 3);

        if (error_norm < 1) {
            double factor = 10;
            if (error_norm != 0) {
                const double grow = 0.9 * pow(error_norm, -1.0 / 8.0);
                factor = grow < 10 ? grow : 10;
            }
            if (rejected)
                factor = factor < 1 ? factor : 1;
            *h_abs *= factor;
            return 0;
        }
        const double shrink = 0.9 * pow(error_norm, -1.0 / 8.0);
        *h_abs *= shrink > 0.2 ? shrink : 0.2;
        rejected = 1;
    }
}

/*
 * The crossing of theta = gamma within the step from (sg->t, sg->y) to
 * (t_new, y_new): the three extra stages, the coefficients F of the dense
 * interpolant, the root and the interpolant there, written to row.
 */
static int crossing(const segment_t *sg, const law_t *w, const double *tab, double K[][3],
                    double h, double t_new, const double y_new[3], double *row)
{
    double F[7][3], dy[3], root;
    if (stages(sg, w, tab, h, N_STAGES + 1, N_EXTENDED, K))
        return ODE_DEGENERATE;
    for (int j = 0; j < 3; j++) {
        const double delta_y = y_new[j] - sg->y[j];
        F[0][j] = delta_y;
        F[1][j] = h * K[0][j] - delta_y;
        F[2][j] = 2 * delta_y - h * (K[N_STAGES][j] + K[0][j]);
    }
    for (int m = 0; m < 4; m++) {
        combine(K, N_EXTENDED, tab + TAB_D + m * N_EXTENDED, dy);
        for (int j = 0; j < 3; j++)
            F[3 + m][j] = h * dy[j];
    }
    if (brent(F, sg->y, sg->t, h, sg->gamma, sg->t, t_new, &root))
        return ODE_NO_ROOT;
    row[0] = root;
    for (int j = 0; j < 3; j++)
        row[1 + j] = interpolate(F, sg->y, j, (root - sg->t) / h);
    return 0;
}

/*
 * Take DOP853 steps with the tableau tab (the TAB_* layout above) from
 * (t, y) until t reaches t_bound, the event fires, a step falls below
 * scipy's min_step or the rec_cap record rows are full.
 * Records each accepted step as a row (t, theta, psi, eta) of rec; at the
 * event the last row is the interpolant at the root.  Returns one of the
 * ODE_* codes; on ODE_RECORDS_FULL the state is the one before the next
 * step, and a call with a new record array goes on.
 */
int vaxgame_segment(segment_t *sg, const law_t *w, const double *tab, int64_t rec_cap,
                    double *rec)
{
    double K[N_EXTENDED][3], t_new, y_new[3], h, h_abs;
    int64_t n_rec = 0;
    int code;

    for (;;) {
        if (n_rec == rec_cap) {
            code = ODE_RECORDS_FULL;
            break;
        }
        code = step(sg, w, tab, K, &t_new, y_new, &h, &h_abs);
        if (code)
            break;
        double *row = rec + 4 * n_rec;
        const double ev = y_new[0] - sg->gamma;
        /* scipy's inclusive sign test for an event of either direction */
        if (sg->event && ((sg->ev <= 0 && ev >= 0) || (sg->ev >= 0 && ev <= 0))) {
            code = crossing(sg, w, tab, K, h, t_new, y_new, row);
            if (code == 0) {
                n_rec += 1;
                code = ODE_EVENT;
            }
            break;
        }
        sg->t = t_new;
        sg->h_abs = h_abs;
        sg->ev = ev;
        row[0] = t_new;
        for (int j = 0; j < 3; j++) {
            sg->y[j] = y_new[j];
            sg->f[j] = K[N_STAGES][j];
            row[1 + j] = y_new[j];
        }
        n_rec += 1;
        if (t_new - sg->t_bound >= 0) {
            code = ODE_DONE;
            break;
        }
    }
    sg->n_rec = n_rec;
    return code;
}

/*
 * CSV rows of the path and trajectory files: per row, keys[i] as %lld and a
 * comma where keys is not NULL, then the cols doubles of values (row-major)
 * as %.17g, separated by commas and ended by a newline.  A NaN prints as
 * "nan", as Python's "%.17g" % x does, where glibc would print "-nan" for a
 * negative one.  Returns the bytes written to buf, or -1, having written
 * nothing, where LC_NUMERIC's decimal point is not "." (Python's output
 * does not depend on it) or buf holds fewer than n * ROW_BYTES(cols) bytes.
 */
#define KEY_BYTES 21    /* "-9223372036854775808," */
#define DOUBLE_BYTES 25 /* "-2.2250738585072014e-308" and its separator */
#define ROW_BYTES(cols) (KEY_BYTES + (cols) * DOUBLE_BYTES)

int64_t vaxgame_format_rows(int64_t n, int64_t cols, const int64_t *keys, const double *values,
                            char *buf, int64_t cap)
{
    if (strcmp(localeconv()->decimal_point, ".") != 0 || cap / ROW_BYTES(cols) < n)
        return -1;
    char *p = buf;
    for (int64_t i = 0; i < n; i++) {
        if (keys)
            p += sprintf(p, "%lld,", (long long)keys[i]);
        for (int64_t j = 0; j < cols; j++) {
            const double x = values[i * cols + j];
            if (isnan(x)) {
                memcpy(p, "nan", 3);
                p += 3;
            } else {
                p += sprintf(p, "%.17g", x);
            }
            *p++ = j + 1 < cols ? ',' : '\n';
        }
    }
    return p - buf;
}

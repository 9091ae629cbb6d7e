/*
 * C kernels for vaxgame: the jump-chain loop of chain.simulate_replications,
 * which steps the replications of a point side by side as the lanes of
 * AVX2 vectors, each its own numpy PCG64, and leaves each PCG64 right
 * after the last uniform its run used, the chunk loop of ode.integrate
 * (ode._PythonChunks, its DOP853
 * segments ode._python_segment, its settle test, its projection of each
 * chunk end, the hop across the threshold ode._hop_across and the Zeno
 * cut-off), the damped Newton of ode.find_equilibrium (ode._newton) with
 * its finite-difference Jacobian (ode._fd_jacobian, also exported for the
 * certificates' eigenvalues), the certificate's pass over its samples,
 * which counts five numbers per round (attractor._numpy_tally), and the
 * %.17g row formatter of the path and trajectory CSVs, which writes
 * Python's bytes from exact integer arithmetic.
 *
 * The kernels are transcriptions of the Python code they replace and must
 * stay bit-exact with it: every floating-point expression keeps the Python
 * operation order, and the library is built with -ffp-contract=off (no
 * fused multiply-add) and never with -ffast-math.  The ODE field keeps
 * ode.varrho's grouping of the event masses, not the chain's event_edges.
 * The file is plain C: it includes only the headers of the C library and
 * the compiler, so gcc and libm build it, with no Python or numpy headers.
 * vaxgame._native builds it at first use and falls back to the Python code
 * when it cannot.
 */

#include <float.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* The chain kernel's lanes, four chains to an AVX2 vector, where the compiler
   targets x86; the CPU is asked for AVX2 at run time, and no -m flag is set. */
#ifdef __SSE2__
#include <immintrin.h>
#define CHAIN_LANES 4
#define AVX2 __attribute__((target("avx2")))
typedef int64_t mask_t __attribute__((vector_size(32))); /* a lane compare: -1 where true */
#endif

/* Response families, in the order of the keys of vaxgame.policy._RESPONSE. */
enum { FC, FR, VFC1, VFC2, VFC2_THETA, STATIC };

/* Event law of one chain kernel call: the rates and the resolved response. */
typedef struct {
    double lam, r, nu, b, d, d_e;
    int64_t family; /* a base family above */
    int64_t mutant; /* nonzero: mix the base with a static p at weight eps */
    double beta, gamma, q, eps, p;
} law_t;

/* One chain of a vaxgame_chain call, carried from call to call: its counts
   and diagnostics, numpy's PCG64 as (state, inc), each a 128-bit integer as
   its high and low halves, and the code it stopped at. */
typedef struct {
    int64_t n, s, i, v, k;
    double eta, inv_eta, min_eta, max_jump;
    int64_t n_rec; /* records written by this call */
    int64_t until; /* epochs to the next record, set by the kernel */
    uint64_t state_hi, state_lo, inc_hi, inc_lo;
    int64_t code;  /* CHAIN_RUNS until the chain stops */
} chain_t;

enum { CHAIN_RUNS, CHAIN_DONE, CHAIN_FROZEN, CHAIN_DEGENERATE, CHAIN_EXTINCT, CHAIN_RECORDS_FULL };

/* Python's min(cap, x): x when x < cap, else cap (NaN included, so min(inf, nan) is inf). */
static double capped(double x, double cap) { return x < cap ? x : cap; }

/*
 * The response and the bin edges, written once for a double and once for
 * a vector whose every lane is computed as the double is.  MIN(x, cap) is
 * capped(), ABOVE(theta, gamma, x) is x where theta > gamma and 0.0
 * elsewhere, and SPLAT(x) is x in every lane.  response##S is the response
 * of policy._RESPONSE capped at cap: 1 gives the acceptance probability
 * q = min(1, q~), INFINITY the propensity q~; a mutant mixes its base,
 * capped the same way, with its static p.  event_edges##S gives the bin
 * edges of one epoch at (theta, psi): the cumulative event masses c1..c7,
 * in the order of chain.Event, and their total varrho in c[7], a copy of
 * chain.event_edges with its grouping of every sum.
 */
#define DEFINE_LAW(T, S, ATTR, MIN, ABOVE, SPLAT)                                      \
    static inline ATTR T response##S(const law_t *w, T theta, T psi, double cap)       \
    {                                                                                  \
        T q;                                                                           \
        switch (w->family) {                                                           \
        case FC: q = MIN(w->beta * psi, cap); break;                                   \
        case FR: q = MIN(w->beta * psi * (1.0 - psi), cap); break;                     \
        case VFC1: q = MIN(w->beta * theta * psi, cap); break;                         \
        case VFC2: q = ABOVE(theta, w->gamma, MIN(w->beta * psi, cap)); break;         \
        case VFC2_THETA: q = ABOVE(theta, w->gamma, MIN(w->beta * theta, cap)); break; \
        default: q = SPLAT(w->q); /* STATIC */                                         \
        }                                                                              \
        if (w->mutant)                                                                 \
            q = (1.0 - w->eps) * q + w->eps * w->p;                                    \
        return q;                                                                      \
    }                                                                                  \
                                                                                       \
    static inline ATTR void event_edges##S(const law_t *w, T theta, T psi, T c[8])     \
    {                                                                                  \
        const T phi = 1.0 - theta - psi;                                               \
        const T t_dec = w->nu * phi;                                                   \
        const T t_vac = response##S(w, theta, psi, 1.0) * t_dec;                       \
        c[0] = w->lam * theta * phi;                                                   \
        c[1] = c[0] + w->r * theta;                                                    \
        c[2] = c[1] + (w->d + w->d_e) * theta;                                         \
        c[3] = c[2] + t_vac;                                                           \
        c[4] = c[3] + (t_dec - t_vac);                                                 \
        c[5] = c[4] + w->b;                                                            \
        c[6] = c[5] + w->d * psi;                                                      \
        c[7] = c[6] + w->d * phi;                                                      \
    }

#define ABOVE(theta, gamma, x) ((theta) > (gamma) ? (x) : 0.0)
#define SAME(x) (x)
DEFINE_LAW(double, , , capped, ABOVE, SAME)
#ifdef CHAIN_LANES /* minpd is capped(): its first operand where it is below the second */
#define MIN_V(x, cap) _mm256_min_pd(x, _mm256_set1_pd(cap))
#define ABOVE_V(theta, gamma, x) _mm256_and_pd(_mm256_cmp_pd(theta, _mm256_set1_pd(gamma), _CMP_GT_OQ), x)
DEFINE_LAW(__m256d, _v, AVX2, MIN_V, ABOVE_V, _mm256_set1_pd)
#endif

/* The count increments (dS, dI, dV, dN) of each event, in the order of
   chain.Event: a copy of chain.EVENT_EFFECTS. */
static const int64_t EVENT_EFFECTS[8][4] = {
    {-1, +1, 0, 0}, /* infection */
    {+1, -1, 0, 0}, /* recovery */
    {0, -1, 0, -1}, /* death of an infected */
    {-1, 0, +1, 0}, /* vaccination */
    {0, 0, 0, 0},   /* declined vaccination */
    {+1, 0, 0, +1}, /* birth */
    {0, 0, -1, -1}, /* death of a vaccinated */
    {-1, 0, 0, -1}, /* death of a susceptible */
};
enum { NULL_DECISION = 4 };
/* the events that take a susceptible, as bits of their index */
#define SUSCEPTIBLE_EVENTS (1u << 0 | 1u << 3 | 1u << 7)

/* event_edges() for the tests, which compare it with chain.event_edges. */
void vaxgame_edges(const law_t *w, double theta, double psi, double *out)
{
    event_edges(w, theta, psi, out);
}

/*
 * numpy's PCG64, pcg_setseq_128_xsl_rr_64: the 128-bit state steps as
 * state * M + inc, M being PCG_MULT_HI * 2^64 + PCG_MULT_LO, and each
 * output is the XSL-RR of the new state, rotr64(hi ^ lo, state >> 122).
 * A uniform is (output >> 11) * 2^-53, the double of Generator.random().
 */
typedef unsigned __int128 u128;
#define PCG_MULT_HI 2549297995355413924ULL
#define PCG_MULT_LO 4865540595714422341ULL

static inline double pcg_uniform(uint64_t *state_hi, uint64_t *state_lo, uint64_t inc_hi,
                                 uint64_t inc_lo)
{
    const u128 low = (u128)*state_lo * PCG_MULT_LO; /* the product in 64-bit halves */
    const uint64_t lo = (uint64_t)low + inc_lo;
    const uint64_t hi = (uint64_t)(low >> 64) + *state_hi * PCG_MULT_LO +
                        *state_lo * PCG_MULT_HI + inc_hi + (lo < inc_lo);
    *state_hi = hi, *state_lo = lo;
    const uint64_t x = hi ^ lo;
    const unsigned rot = (unsigned)(hi >> 58);
    const uint64_t out = x >> rot | x << (-rot & 63);
    return (double)(out >> 11) * (1.0 / 9007199254740992.0);
}

/*
 * One epoch of chain r, as chain._python_loop steps it: CHAIN_RUNS, or the
 * code r stops at: before the epoch at max_steps, the freeze, full records
 * or a total rate that is not positive, and in it where the population
 * dies out.  It takes the next uniform u of r's PCG64, and records each k
 * that is a multiple of stride.  A stop before the epoch takes no uniform,
 * so a chain's PCG64 stops right after the last uniform its run used.  The
 * event is the first bin whose upper edge exceeds x = u * varrho, found by
 * the Python loop's cascade.
 */
static inline __attribute__((always_inline)) int
epoch(chain_t *r, const law_t *w, int64_t max_steps, double delta, int64_t stride,
      int64_t rec_cap, int64_t row, int64_t *rec_k, double *rec_theta, double *rec_psi,
      double *rec_eta)
{
    if (r->k >= max_steps)
        return CHAIN_DONE;
    if (r->eta <= delta)
        return CHAIN_FROZEN;
    if (r->n_rec == rec_cap)
        return CHAIN_RECORDS_FULL;
    double e[8];
    event_edges(w, (double)r->i / (double)r->n, (double)r->v / (double)r->n, e);
    if (e[7] <= 0.0)
        return CHAIN_DEGENERATE;
    const double x = pcg_uniform(&r->state_hi, &r->state_lo, r->inc_hi, r->inc_lo) * e[7];

    /* at S = 0 a rounded phi > 0 leaves the infection and vaccination bins
       a width of about 1e-17, and a 1-ulp overshoot can pass the last
       boundary: a draw of an event that takes a susceptible changes nothing */
    unsigned bin = 7;
    if (x < e[0])
        bin = 0;
    else if (x < e[1])
        bin = 1;
    else if (x < e[2])
        bin = 2;
    else if (x < e[3])
        bin = 3;
    else if (x < e[4])
        bin = 4;
    else if (x < e[5])
        bin = 5;
    else if (x < e[6])
        bin = 6;
    const unsigned skip = (r->s == 0) & (SUSCEPTIBLE_EVENTS >> bin);
    const int64_t *d = EVENT_EFFECTS[skip ? NULL_DECISION : bin];
    r->s += d[0], r->i += d[1], r->v += d[2], r->n += d[3];
    if (r->n == 0)
        return CHAIN_EXTINCT;

    r->k += 1;
    r->eta = (double)r->n / (double)r->k;
    const double new_inv = 1.0 / r->eta;
    const double jump = fabs(new_inv - r->inv_eta) * (double)r->k;
    /* conditional moves: whether eta falls to a new minimum is a coin toss
       once k passes n */
    r->max_jump = jump > r->max_jump ? jump : r->max_jump;
    r->inv_eta = new_inv;
    r->min_eta = r->eta < r->min_eta ? r->eta : r->min_eta;
    if (--r->until == 0) {
        r->until = stride;
        rec_k[row + r->n_rec] = r->k;
        rec_theta[row + r->n_rec] = (double)r->i / (double)r->n;
        rec_psi[row + r->n_rec] = (double)r->v / (double)r->n;
        rec_eta[row + r->n_rec] = r->eta;
        r->n_rec += 1;
    }
    return CHAIN_RUNS;
}

#define CHAIN_ARGS(row) w, max_steps, delta, stride, rec_cap, row, rec_k, rec_theta, rec_psi, rec_eta

/* Run chain r alone until it stops, out of line so that the loop keeps the
   chain in registers. */
static __attribute__((noinline)) void
run_alone(chain_t *r, const law_t *w, int64_t max_steps, double delta, int64_t stride,
          int64_t rec_cap, int64_t row, int64_t *rec_k, double *rec_theta, double *rec_psi,
          double *rec_eta)
{
    chain_t one = *r;
    int code;
    while ((code = epoch(&one, CHAIN_ARGS(row))) == CHAIN_RUNS)
        ;
    one.code = code;
    *r = one;
}

#define LOCKSTEP 16 /* the most chains stepped side by side */

#ifdef CHAIN_LANES
/* The chains that step side by side, lane a for the a-th: its counts and
   k as doubles, exact, for chain.simulate_replications keeps each below
   2^53, and its PCG64.  A lane steps while k is below its limit: the k of
   its chain's next record, max_steps, or k itself where the chain's
   records are full. */
typedef struct {
    double n[LOCKSTEP], s[LOCKSTEP], i[LOCKSTEP], v[LOCKSTEP], k[LOCKSTEP], limit[LOCKSTEP];
    double eta[LOCKSTEP], inv_eta[LOCKSTEP], min_eta[LOCKSTEP], max_jump[LOCKSTEP];
    uint64_t state_hi[LOCKSTEP], state_lo[LOCKSTEP], inc_hi[LOCKSTEP], inc_lo[LOCKSTEP];
} lanes_t;

static void lane_load(lanes_t *L, int a, const chain_t *r, int64_t max_steps, int64_t rec_cap)
{
    L->n[a] = (double)r->n, L->s[a] = (double)r->s, L->i[a] = (double)r->i, L->v[a] = (double)r->v;
    L->k[a] = (double)r->k;
    L->eta[a] = r->eta, L->inv_eta[a] = r->inv_eta;
    L->min_eta[a] = r->min_eta, L->max_jump[a] = r->max_jump;
    L->state_hi[a] = r->state_hi, L->state_lo[a] = r->state_lo;
    L->inc_hi[a] = r->inc_hi, L->inc_lo[a] = r->inc_lo;
    int64_t room = 0;
    if (r->n_rec < rec_cap && r->k < max_steps)
        room = r->until - 1 < max_steps - r->k ? r->until - 1 : max_steps - r->k;
    L->limit[a] = (double)(r->k + room);
}

/* Chain r from lane a: its countdown to the next record moves on by the
   epochs the lane stepped. */
static void lane_store(const lanes_t *L, int a, chain_t *r)
{
    const int64_t k = (int64_t)L->k[a];
    r->until -= k - r->k;
    r->n = (int64_t)L->n[a], r->s = (int64_t)L->s[a], r->i = (int64_t)L->i[a], r->v = (int64_t)L->v[a];
    r->k = k;
    r->eta = L->eta[a], r->inv_eta = L->inv_eta[a];
    r->min_eta = L->min_eta[a], r->max_jump = L->max_jump[a];
    r->state_hi = L->state_hi[a], r->state_lo = L->state_lo[a];
}

/* The count change at bits sh of code, its 2-bit code being the change + 1,
   as a double: 2^52 + code - (2^52 + 1). */
static inline AVX2 __m256d change(int64_t code, __m256i sh)
{
    const __m256i bits = _mm256_srlv_epi64(_mm256_set1_epi64x(code), sh) & 3;
    return _mm256_castsi256_pd(bits | _mm256_castpd_si256(_mm256_set1_pd(0x1p52))) - (0x1p52 + 1);
}

/*
 * Step chains c[live[0..n_live)] side by side until at most one runs, and
 * return how many run on (that one in live[0]).  At an epoch where a lane
 * of a vector could stop or record, nothing in the vector has changed yet:
 * each of its chains takes that epoch from epoch() instead, and one that
 * stops leaves the lanes.  Otherwise each lane draws from its own PCG64,
 * its bin is 7 plus the sum of the prefix-ORed x < c_j masks (the first
 * set bit; none set, NaN included, is the last bin), and its count changes
 * are read from a 2-bit code per bin.
 */
static AVX2 int run_lanes(chain_t *c, int64_t *live, int n_live, const law_t *w,
                          int64_t max_steps, double delta, int64_t stride, int64_t rec_cap,
                          int64_t *rec_k, double *rec_theta, double *rec_psi, double *rec_eta)
{
    /* the code words of dS, dI, dV and dN: the codes of bin b at bits 2b, and
       at bits 16 + 2b those where S = 0, where the events that take a
       susceptible are the null decision */
    int64_t code[4] = {0};
    for (int b = 0; b < 16; b++) {
        const int e = b >= 8 && (SUSCEPTIBLE_EVENTS >> (b - 8) & 1) ? NULL_DECISION : b % 8;
        for (int j = 0; j < 4; j++)
            code[j] |= (EVENT_EFFECTS[e][j] + 1) << 2 * b;
    }
    lanes_t L;
    memset(&L, 0, sizeof L); /* the lanes past the last chain too */
    for (int a = 0; a < n_live; a++)
        lane_load(&L, a, &c[live[a]], max_steps, rec_cap);
    while (n_live > 1) {
        int stopped = 0;
        for (int first = 0; first < n_live; first += CHAIN_LANES) {
#define LANES(field) (*(__m256d_u *)(L.field + first))
            __m256d n = LANES(n), i = LANES(i), v = LANES(v), k = LANES(k), e[8];
            event_edges_v(w, i / n, v / n, e);
            /* n < 2: the population may die out */
            const mask_t rare = (k >= LANES(limit)) | (LANES(eta) <= delta) | (n < 2.0) | (e[7] <= 0.0);
            const int here = n_live - first < CHAIN_LANES ? n_live - first : CHAIN_LANES;
            if (_mm256_movemask_pd((__m256d)rare) & ((1 << here) - 1)) {
                for (int a = first; a < first + here; a++) {
                    chain_t *r = &c[live[a]];
                    lane_store(&L, a, r);
                    const int stop = epoch(r, CHAIN_ARGS(live[a] * rec_cap));
                    if (stop == CHAIN_RUNS)
                        lane_load(&L, a, r, max_steps, rec_cap);
                    else
                        r->code = stop, live[a] = -1, stopped = 1;
                }
                continue;
            }
            /* the lanes past the last chain draw too, unread */
#define DRAW(a) pcg_uniform(L.state_hi + first + (a), L.state_lo + first + (a), \
                            L.inc_hi[first + (a)], L.inc_lo[first + (a)])
            const __m256d x = _mm256_setr_pd(DRAW(0), DRAW(1), DRAW(2), DRAW(3)) * e[7];
            __m256d s = LANES(s);
            mask_t below = x < e[0], sum = below;
#pragma GCC unroll 6
            for (int b = 1; b < 7; b++)
                below |= x < e[b], sum += below;
            const __m256i sh = (__m256i)((sum + 7) * 2 + ((s == 0.0) & 16)); /* S = 0: bits 16 on */
            s += change(code[0], sh), i += change(code[1], sh);
            v += change(code[2], sh), n += change(code[3], sh);
            k += 1.0;
            const __m256d eta = n / k, new_inv = 1.0 / eta;
            const __m256d jump = _mm256_andnot_pd(_mm256_set1_pd(-0.0), new_inv - LANES(inv_eta)) * k;
            LANES(max_jump) = _mm256_max_pd(jump, LANES(max_jump)); /* maxpd and minpd are the ?: of epoch() */
            LANES(min_eta) = _mm256_min_pd(eta, LANES(min_eta));
            LANES(inv_eta) = new_inv, LANES(eta) = eta;
            LANES(n) = n, LANES(s) = s, LANES(i) = i, LANES(v) = v, LANES(k) = k;
        }
        if (stopped) { /* the chains that run on, packed into the first lanes */
            int m = 0;
            for (int a = 0; a < n_live; a++)
                if (live[a] >= 0)
                    lane_store(&L, a, &c[live[a]]), live[m++] = live[a];
            n_live = m;
            for (int a = 0; a < n_live && n_live > 1; a++)
                lane_load(&L, a, &c[live[a]], max_steps, rec_cap);
        }
    }
    return n_live;
}
#endif

/*
 * Run each chain of c whose code is CHAIN_RUNS or CHAIN_RECORDS_FULL until
 * it stops, and leave its code and record count in it; chain j records to
 * rows j * rec_cap on.  Up to LOCKSTEP chains step side by side in the
 * lanes, where the CPU has them; a chain that stops leaves them, and the
 * last one left runs on alone.  Without the lanes the chains run alone,
 * one after another.  A chain stopped at full records holds the state
 * before its next epoch, and a call with new record arrays goes on from
 * there.
 */
void vaxgame_chain(chain_t *c, int64_t n_chains, const law_t *w, int64_t max_steps,
                   double delta, int64_t stride, int64_t rec_cap, int64_t *rec_k,
                   double *rec_theta, double *rec_psi, double *rec_eta)
{
#ifdef CHAIN_LANES
    __builtin_cpu_init();
    const int lanes = __builtin_cpu_supports("avx2");
#endif
    for (int64_t first = 0; first < n_chains; first += LOCKSTEP) {
        int64_t live[LOCKSTEP];
        int n_live = 0;
        for (int64_t j = first; j < n_chains && j < first + LOCKSTEP; j++) {
            if (c[j].code == CHAIN_RUNS || c[j].code == CHAIN_RECORDS_FULL) {
                c[j].n_rec = 0, c[j].until = stride - c[j].k % stride;
                live[n_live++] = j;
            }
        }
#ifdef CHAIN_LANES
        if (lanes && n_live > 1)
            n_live = run_lanes(c, live, n_live, w, max_steps, delta, stride, rec_cap, rec_k,
                               rec_theta, rec_psi, rec_eta);
#endif
        for (int a = 0; a < n_live; a++)
            run_alone(&c[live[a]], CHAIN_ARGS(live[a] * rec_cap));
    }
}

/*
 * The mean-field field g of ode.field, the chunk loop of ode.integrate with
 * its DOP853 segments, transcribed from scipy's DOP853 solver to scalar C,
 * and the Newton of ode.find_equilibrium.  ode._python_segment does the
 * same arithmetic in Python; every sum runs over the stages in order, from
 * the first product on.
 */

enum {
    ODE_DONE,
    ODE_EVENT,
    ODE_TOO_SMALL,
    ODE_RECORDS_FULL,
    ODE_DEGENERATE,
    ODE_NO_ROOT,
    ODE_LEFT_SIMPLEX,
    ODE_SINGULAR,
    ODE_SETTLED,
    ODE_ZENO,
    ODE_NO_HOP
};

/* One segment: its settings, then the solver state carried across calls. */
typedef struct {
    double t_bound, rtol, atol;
    int64_t event; /* nonzero: stop at the first crossing of theta = gamma */
    double gamma;
    double t, h_abs;
    double y[3], f[3]; /* the state at t and g there */
    double ev;         /* the event value theta - gamma at (t, y) */
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
 * ode.varrho's grouping of the total mass, and response() capped at 1 for
 * q.  Zero at eta <= 0.  Returns ODE_DEGENERATE where varrho is not positive, else 0.
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
    const double q = response(w, theta + 0.0, psi + 0.0, 1.0);
    const double scale = 1.0 / (eta * rho_total);
    const double net_birth = w->b - w->d_e * theta;
    g[0] = theta * scale * (phi * w->lam - w->r - w->d_e - net_birth);
    g[1] = scale * (q * phi * w->nu - net_birth * psi);
    g[2] = (w->b - w->d - w->d_e * theta) / rho_total - eta;
    return 0;
}

/* The certificate's sample pass: its settings, then the counts of one round. */
typedef struct {
    double x_hat[3], p_form[9]; /* the form P, row-major */
    double gamma;               /* the threshold; NaN where there is none */
    int64_t counts[5];
} sample_t;

/*
 * One round of the certificate's samples, as attractor._numpy_tally counts
 * them: x = x_hat + offset for the n offsets (row-major) in order, keeping
 * each feasible x (theta >= 0, psi >= 0, theta + psi <= 1, eta > 0) until
 * `missing` are kept.  At each kept x, with z = x - x_hat and g = field(x),
 * it forms z.(P g) and z.g, each sum in index order from the first product.
 * Counts the x kept, and the kept x with z.(P g) < 0, with z.g < 0, with
 * q~ = response(.., INFINITY) > 1 and with theta across gamma from x_hat.
 * A NaN offset, an all-zero direction's, gives an x that is not feasible.
 * Returns ODE_DEGENERATE where varrho vanishes at a kept x.
 */
int vaxgame_certify(sample_t *sp, const law_t *w, const double *offsets, int64_t n,
                    int64_t missing)
{
    const double *x_hat = sp->x_hat, *p_form = sp->p_form, gamma = sp->gamma;
    const int hat_side = x_hat[0] > gamma;
    int64_t kept = 0, lyap = 0, eucl = 0, side = 0, crossed = 0;
    for (int64_t i = 0; i < n && kept < missing; i++) {
        const double *off = offsets + 3 * i;
        double x[3], z[3], g[3], pg[3];
        for (int j = 0; j < 3; j++)
            x[j] = x_hat[j] + off[j];
        if (!(x[0] >= 0.0 && x[1] >= 0.0 && x[0] + x[1] <= 1.0 && x[2] > 0.0))
            continue;
        kept += 1;
        if (field(w, x, g))
            return ODE_DEGENERATE;
        for (int j = 0; j < 3; j++) {
            z[j] = x[j] - x_hat[j];
            pg[j] = p_form[3 * j] * g[0] + p_form[3 * j + 1] * g[1] + p_form[3 * j + 2] * g[2];
        }
        lyap += z[0] * pg[0] + z[1] * pg[1] + z[2] * pg[2] < 0.0;
        eucl += z[0] * g[0] + z[1] * g[1] + z[2] * g[2] < 0.0;
        side += response(w, x[0], x[1], INFINITY) > 1.0;
        crossed += (x[0] > gamma) != hat_side;
    }
    const int64_t counts[5] = {kept, lyap, eucl, side, crossed};
    memcpy(sp->counts, counts, sizeof counts);
    return 0;
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

/* Start a segment at (sg->t, sg->y): g there, the first step and the event value. */
static int segment_start(segment_t *sg, const law_t *w)
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
 * (theta, psi) clipped into the simplex, the excess taken evenly, and eta
 * floored at eta_floor, as ode._clip_simplex: Python's min and max, so NaN
 * passes through.
 */
static void clip_simplex(const double y[3], double eta_floor, double out[3])
{
    double theta = 0.0 > y[0] ? 0.0 : y[0], psi = 0.0 > y[1] ? 0.0 : y[1];
    theta = 1.0 < theta ? 1.0 : theta;
    psi = 1.0 < psi ? 1.0 : psi;
    if (theta + psi > 1.0) {
        const double excess = theta + psi - 1.0;
        theta -= excess * 0.5;
        psi -= excess * 0.5;
    }
    out[0] = theta;
    out[1] = psi;
    out[2] = eta_floor > y[2] ? eta_floor : y[2];
}

/* np.max(np.abs(v)) of three components: NaN where any is NaN. */
static double max_abs(const double v[3])
{
    double m = fabs(v[0]);
    for (int j = 1; j < 3; j++) {
        const double a = fabs(v[j]);
        if (isnan(a) || a > m) /* a NaN m stays */
            m = a;
    }
    return m;
}

/* ode._outside_simplex: (theta, psi) outside the simplex by more than rounding. */
static int outside_simplex(const double y[3])
{
    return y[0] < -1e-9 || y[1] < -1e-9 || y[0] + y[1] > 1.0 + 1e-9;
}

/*
 * ode._hop_across from the event row (sg->t, sg->y), which lies on theta =
 * gamma: classical RK4 micro-steps on field(), the first of 1e-9 max(1, |t|)
 * and each next one twice as long, none past t_end, until |theta - gamma| >
 * 1e-12 or t reaches t_end, at most 64 of them.  Every sum keeps numpy's
 * order: y + (h/2) k1, then y + (h/6) (((k1 + 2 k2) + 2 k3) + k4).  Leaves
 * the end in sg->t and sg->y, projected as ode._project_simplex projects it.
 * Returns ODE_DEGENERATE where varrho vanishes, ODE_LEFT_SIMPLEX (sg->y
 * holds the end) or ODE_NO_HOP after 64 steps, else 0.
 */
static int hop_across(segment_t *sg, const law_t *w, double t_end)
{
    double t = sg->t, y[3] = {sg->y[0], sg->y[1], sg->y[2]};
    double h = 1e-9 * (fabs(t) > 1.0 ? fabs(t) : 1.0);
    for (int tries = 0; tries < 64; tries++) {
        if (fabs(y[0] - sg->gamma) > 1e-12 || t >= t_end) {
            sg->t = t;
            if (outside_simplex(y)) {
                memcpy(sg->y, y, sizeof y);
                return ODE_LEFT_SIMPLEX;
            }
            clip_simplex(y, 1e-300, sg->y);
            return 0;
        }
        h = t_end - t < h ? t_end - t : h;
        double k1[3], k2[3], k3[3], k4[3], y2[3], y3[3], y4[3];
        if (field(w, y, k1))
            return ODE_DEGENERATE;
        for (int j = 0; j < 3; j++)
            y2[j] = y[j] + h / 2 * k1[j];
        if (field(w, y2, k2))
            return ODE_DEGENERATE;
        for (int j = 0; j < 3; j++)
            y3[j] = y[j] + h / 2 * k2[j];
        if (field(w, y3, k3))
            return ODE_DEGENERATE;
        for (int j = 0; j < 3; j++)
            y4[j] = y[j] + h * k3[j];
        if (field(w, y4, k4))
            return ODE_DEGENERATE;
        for (int j = 0; j < 3; j++)
            y[j] = y[j] + h / 6 * (k1[j] + 2 * k2[j] + 2 * k3[j] + k4[j]);
        t += h;
        h *= 2.0;
    }
    sg->t = t;
    return ODE_NO_HOP;
}

/*
 * The chunk loop of ode.integrate: segments of 2 time units, doubling up to
 * max_chunk after each one that reaches its bound, t_next = min(t + chunk,
 * t_end).  Its settings, then the state carried across calls.
 */
typedef struct {
    double t_end, max_chunk;
    int64_t stop; /* nonzero: settle at the first quiet row after a step or at an event */
    double tol;   /* a row is quiet when every |g| is below tol */
    double chunk;
    int64_t n_segments;
    int64_t open;   /* nonzero: seg is a segment in progress */
    int64_t hopped; /* nonzero: the hop row, seg's t and y, is still to be recorded */
    int64_t tiny;   /* the short inter-event segments in a row */
    double t0;      /* the start time of the last segment begun */
    segment_t seg;  /* while no segment is open: the next one's t, y and settings */
    int64_t n_rec;  /* records written by this call */
} loop_t;

/*
 * Run the segments of ode.integrate from (lp->seg.t, lp->seg.y), with the
 * tableau tab (the TAB_* layout above), until the run reaches t_end
 * (ODE_DONE), settles (ODE_SETTLED) or is cut off after 50 event segments
 * in a row shorter than 1e-3 (ODE_ZENO), a step falls below scipy's
 * min_step (ODE_TOO_SMALL), the event has no root (ODE_NO_ROOT), varrho
 * vanishes (ODE_DEGENERATE), a segment or a hop ends more than rounding
 * outside the simplex (ODE_LEFT_SIMPLEX, seg.y holds that end), a hop does
 * not clear the threshold (ODE_NO_HOP) or the rec_cap record rows are full
 * (ODE_RECORDS_FULL, and a call with a new record array goes on).
 *
 * Records the start of each segment and each accepted step as a row (t,
 * theta, psi, eta) of rec; at the event the last row of the segment is the
 * interpolant at the root.  With stop set, the run settles at the first
 * row after an accepted step, or at an event row, whose max|g| is below
 * tol: the field the stepper has there, K[N_STAGES], or one field() call
 * at the event row.  A segment ends at that row, at the event or at
 * t_bound; its end is projected as ode._project_simplex projects it and
 * becomes the next segment's start.  A segment that ends at the event short
 * of t_end is followed by hop_across() and its row, as in
 * ode._PythonChunks.run; the run is cut off (ODE_ZENO) after that row once
 * 50 segments in a row have ended at an event less than 1e-3 after they
 * began, or once 100,000 segments have run.
 */
int vaxgame_integrate(loop_t *lp, const law_t *w, const double *tab, int64_t rec_cap,
                      double *rec)
{
    segment_t *sg = &lp->seg;
    double K[N_EXTENDED][3], t_new, y_new[3], h, h_abs;
    int64_t n_rec = 0;
    int code;

    for (;;) {
        if (lp->hopped) {
            if (n_rec == rec_cap) {
                code = ODE_RECORDS_FULL;
                break;
            }
            double *row = rec + 4 * n_rec++;
            row[0] = sg->t;
            for (int j = 0; j < 3; j++)
                row[1 + j] = sg->y[j];
            lp->hopped = 0;
            /* the orbit oscillates fast about the threshold; once the
               progress between events stays far below any genuine
               half-cycle, the run stops there */
            if (lp->tiny >= 50 || lp->n_segments >= 100000) {
                code = ODE_ZENO;
                break;
            }
        }
        if (!lp->open) {
            if (!(sg->t < lp->t_end)) {
                code = ODE_DONE;
                break;
            }
            if (n_rec == rec_cap) {
                code = ODE_RECORDS_FULL;
                break;
            }
            const double t_next = sg->t + lp->chunk;
            sg->t_bound = lp->t_end < t_next ? lp->t_end : t_next;
            if (segment_start(sg, w)) {
                code = ODE_DEGENERATE;
                break;
            }
            double *row = rec + 4 * n_rec++;
            row[0] = lp->t0 = sg->t;
            for (int j = 0; j < 3; j++)
                row[1 + j] = sg->y[j];
            lp->open = 1;
        }
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
        const int event = sg->event && ((sg->ev <= 0 && ev >= 0) || (sg->ev >= 0 && ev <= 0));
        int settled = 0;
        if (event) {
            code = crossing(sg, w, tab, K, h, t_new, y_new, row);
            if (code)
                break;
            n_rec += 1;
            if (lp->stop) {
                double g[3];
                if (field(w, row + 1, g)) {
                    code = ODE_DEGENERATE;
                    break;
                }
                settled = max_abs(g) < lp->tol;
            }
        } else {
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
            settled = lp->stop && max_abs(K[N_STAGES]) < lp->tol;
            if (!settled && !(t_new - sg->t_bound >= 0))
                continue;
        }

        /* the segment has ended, at the event row, at the first quiet row or at t_bound */
        lp->open = 0;
        lp->n_segments += 1;
        sg->t = row[0];
        const double *end = row + 1;
        if (outside_simplex(end)) {
            for (int j = 0; j < 3; j++)
                sg->y[j] = end[j];
            code = ODE_LEFT_SIMPLEX;
            break;
        }
        clip_simplex(end, 1e-300, sg->y);
        if (settled) {
            code = ODE_SETTLED;
            break;
        }
        if (!event) {
            const double doubled = lp->chunk * 2.0;
            lp->chunk = lp->max_chunk < doubled ? lp->max_chunk : doubled;
        } else if (sg->t < lp->t_end) { /* hop strictly across before re-arming the event */
            lp->tiny = sg->t - lp->t0 < 1e-3 ? lp->tiny + 1 : 0;
            code = hop_across(sg, w, lp->t_end);
            if (code)
                break;
            lp->hopped = 1;
        }
    }
    lp->n_rec = n_rec;
    return code;
}

/*
 * The finite-difference Jacobian of g at y into jac (row-major), as
 * ode._fd_jacobian: per column j a step h = rel_step max(1, |y_j|), central
 * differences, or the second-order one-sided stencil where a step of h
 * leaves the simplex on one side; a column blocked on both sides is 0.
 * Returns ODE_DEGENERATE where varrho vanishes at a stencil point, else 0.
 */
static int jacobian(const law_t *w, const double y[3], double rel_step, double jac[3][3])
{
    double g0[3];
    int have_g0 = 0;
    for (int j = 0; j < 3; j++) {
        const double h = rel_step * (fabs(y[j]) > 1.0 ? fabs(y[j]) : 1.0);
        const int lo_blocked = j < 2 && y[j] - h < 0.0;
        const int hi_blocked = j < 2 && (y[0] + y[1] + h > 1.0 || y[j] + h > 1.0);
        double p1[3] = {y[0], y[1], y[2]}, p2[3] = {y[0], y[1], y[2]}, g1[3], g2[3];
        if (lo_blocked && hi_blocked) {
            for (int i = 0; i < 3; i++)
                jac[i][j] = 0.0;
            continue;
        }
        if (!lo_blocked && !hi_blocked) {
            p1[j] += h;
            p2[j] -= h;
        } else if (!hi_blocked) {
            p1[j] += h;
            p2[j] += 2.0 * h;
        } else {
            p1[j] -= h;
            p2[j] -= 2.0 * h;
        }
        if (field(w, p1, g1) || field(w, p2, g2))
            return ODE_DEGENERATE;
        if (!lo_blocked && !hi_blocked) {
            for (int i = 0; i < 3; i++)
                jac[i][j] = (g1[i] - g2[i]) / (2.0 * h);
            continue;
        }
        if (!have_g0) {
            if (field(w, y, g0))
                return ODE_DEGENERATE;
            have_g0 = 1;
        }
        for (int i = 0; i < 3; i++)
            jac[i][j] = hi_blocked ? (3.0 * g0[i] - 4.0 * g1[i] + g2[i]) / (2.0 * h)
                                   : (-3.0 * g0[i] + 4.0 * g1[i] - g2[i]) / (2.0 * h);
    }
    return 0;
}

/* jacobian() for ode.field_jacobian, which certify_stability's eigenvalues read. */
int vaxgame_jacobian(const law_t *w, const double *y, double rel_step, double *jac)
{
    return jacobian(w, y, rel_step, (double(*)[3])jac);
}

/*
 * x with a x = b for a 3 x 3 a, as ode._solve3: Gaussian elimination with
 * partial pivoting (the first row of largest |pivot|), then back
 * substitution.  Returns ODE_SINGULAR, with x unset, at an exact zero pivot.
 */
static int solve3(const double a[3][3], const double b[3], double x[3])
{
    double m[3][4];
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 3; j++)
            m[i][j] = a[i][j];
        m[i][3] = b[i];
    }
    for (int k = 0; k < 3; k++) {
        int p = k;
        for (int i = k + 1; i < 3; i++)
            if (fabs(m[i][k]) > fabs(m[p][k]))
                p = i;
        if (m[p][k] == 0.0)
            return ODE_SINGULAR;
        for (int j = 0; j < 4; j++) {
            const double swap = m[k][j];
            m[k][j] = m[p][j];
            m[p][j] = swap;
        }
        for (int i = k + 1; i < 3; i++) {
            const double f = m[i][k] / m[k][k];
            for (int j = k + 1; j < 4; j++)
                m[i][j] -= f * m[k][j];
        }
    }
    for (int i = 2; i >= 0; i--) {
        double s = m[i][3];
        for (int j = i + 1; j < 3; j++)
            s -= m[i][j] * x[j];
        x[i] = s / m[i][i];
    }
    return 0;
}

/*
 * The damped Newton of ode._newton from y, in place: at most max_iter
 * iterations, each stopping once max|g| < tol, solving jacobian() dy = -g
 * with solve3() and halving the step up to 30 times through
 * clip_simplex(.., 1e-12) until max|g| falls or drops below tol.  Writes
 * max|g| at the start y to *start_res and at the final y to *res.  Returns
 * 0, ODE_DEGENERATE where varrho vanishes, or ODE_SINGULAR at an exact zero
 * pivot, where ode._newton takes a least-squares step and the caller runs
 * it instead (*start_res is written by then).
 */
int vaxgame_newton(const law_t *w, int64_t max_iter, double tol, double rel_step, double *y,
                   double *res, double *start_res)
{
    double r[3], jac[3][3], minus_r[3], delta[3], trial[3], moved[3], trial_r[3];
    if (field(w, y, r))
        return ODE_DEGENERATE;
    double norm = *start_res = max_abs(r);
    for (int64_t it = 0; it < max_iter && !(norm < tol); it++) {
        if (jacobian(w, y, rel_step, jac))
            return ODE_DEGENERATE;
        for (int j = 0; j < 3; j++)
            minus_r[j] = -r[j];
        if (solve3(jac, minus_r, delta))
            return ODE_SINGULAR;
        double step = 1.0;
        int improved = 0;
        for (int k = 0; k < 30; k++) {
            for (int j = 0; j < 3; j++)
                moved[j] = y[j] + step * delta[j];
            clip_simplex(moved, 1e-12, trial);
            if (field(w, trial, trial_r))
                return ODE_DEGENERATE;
            const double trial_norm = max_abs(trial_r);
            if (trial_norm < norm || trial_norm < tol) {
                for (int j = 0; j < 3; j++) {
                    y[j] = trial[j];
                    r[j] = trial_r[j];
                }
                norm = trial_norm;
                improved = 1;
                break;
            }
            step *= 0.5;
        }
        if (!improved)
            break;
    }
    *res = norm;
    return 0;
}

/*
 * CSV rows of the path and trajectory files: per row, keys[i] as a decimal
 * integer and a comma where keys is not NULL, then the cols doubles of
 * values (row-major) as %.17g, separated by commas and ended by a newline.
 * A NaN prints as "nan", as Python's "%.17g" % x does, where glibc would
 * print "-nan" for a negative one.  Returns the bytes written to buf, or -1,
 * having written nothing, where LC_NUMERIC's decimal point is not "."
 * (Python's output does not depend on it) or buf holds fewer than
 * n * ROW_BYTES(cols) bytes.
 */
#define KEY_BYTES 21    /* "-9223372036854775808," */
#define DOUBLE_BYTES 25 /* "-2.2250738585072014e-308" and its separator */
#define ROW_BYTES(cols) (KEY_BYTES + (cols) * DOUBLE_BYTES)

/* 5^j for j <= 27, the largest power of 5 below 2^64 */
static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL, 1953125ULL,
    9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL, 30517578125ULL,
    152587890625ULL, 762939453125ULL, 3814697265625ULL, 19073486328125ULL, 95367431640625ULL,
    476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL,
};
#define E16 10000000000000000ULL

/* The decimal digits of u, without leading zeros, at p; returns the end. */
static char *put_digits(char *p, uint64_t u)
{
    char d[20];
    int n = 0;
    do {
        d[19 - n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    memcpy(p, d + 20 - n, n);
    return p + n;
}

/*
 * x as Python's "%.17g" % x, at p; returns the end.  For 10^-16 <= |x| <
 * 2^127 (the double 1e-16 lies just below 10^-16) in integer arithmetic:
 * with |x| = m 2^e and k = floor(log10 |x|), the 17 digits are |x| / 10^s,
 * s = k - 16, rounded half to even on the exact remainder.  For s <= 0 that
 * quotient is m 5^-s 2^(e - s), at most 2^53 5^32 < 2^128 before the shift;
 * for s > 0 it is (m << (e - s)) / 5^s, as 10^s = 5^s 2^s.  The digits are
 * then laid out by C's %g rule at precision 17.  Zero and NaN are written
 * directly; subnormals, infinities and the rest go through sprintf.
 */
static char *format_double(char *p, double x)
{
    const double ax = fabs(x);
    if (isnan(x)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (ax == 0.0) {
        if (signbit(x))
            *p++ = '-';
        *p++ = '0';
        return p;
    }
    if (!(ax > 1e-16 && ax < 0x1p127))
        return p + sprintf(p, "%.17g", x);

    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int biased = (int)(bits >> 52 & 0x7ff);
    const uint64_t m = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
    const int e = biased - 1075;
    /* floor((e2 + 1) log10 2) for |x| in [2^e2, 2^(e2 + 1)): k or k + 1
       (gcc shifts a negative int arithmetically, so >> is floor) */
    int k = (biased - 1022) * 78913 >> 18;
    uint64_t q;
    int up;
    for (;;) {
        const int s = k - 16;
        if (s > 0) {
            const unsigned __int128 num = (unsigned __int128)m << (e - s);
            const uint64_t r = (uint64_t)(num % POW5[s]);
            q = (uint64_t)(num / POW5[s]);
            up = 2 * r > POW5[s] || (2 * r == POW5[s] && q & 1);
        } else if (e - s >= 0) {
            q = m * POW5[-s] << (e - s); /* s is 0 or -1: no remainder, and no overflow */
            up = 0;
        } else {
            unsigned __int128 num = (unsigned __int128)m * POW5[-s < 27 ? -s : 27];
            if (-s > 27)
                num *= POW5[-s - 27];
            const int shift = s - e;
            const unsigned __int128 half = (unsigned __int128)1 << (shift - 1);
            const unsigned __int128 r = num & (2 * half - 1);
            q = (uint64_t)(num >> shift);
            up = r > half || (r == half && q & 1);
        }
        if (q >= E16)
            break;
        k -= 1; /* the estimate was one too high */
    }
    q += up;
    if (q == 10 * E16) {
        q = E16;
        k += 1;
    }

    char d[17];
    put_digits(d, q);
    int n = 17;
    while (d[n - 1] == '0')
        n--;
    if (x < 0)
        *p++ = '-';
    if (k >= 0 && k < 17) {
        memcpy(p, d, k + 1);
        p += k + 1;
        if (n > k + 1) {
            *p++ = '.';
            memcpy(p, d + k + 1, n - k - 1);
            p += n - k - 1;
        }
    } else if (k >= -4 && k < 0) {
        memcpy(p, "0.000", 1 - k); /* "0." and -k - 1 zeros */
        memcpy(p + 1 - k, d, n);
        p += 1 - k + n;
    } else {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, n - 1);
            p += n - 1;
        }
        const int ak = k < 0 ? -k : k; /* 5 <= |k| <= 38: two digits */
        *p++ = 'e';
        *p++ = k < 0 ? '-' : '+';
        *p++ = (char)('0' + ak / 10);
        *p++ = (char)('0' + ak % 10);
    }
    return p;
}

int64_t vaxgame_format_rows(int64_t n, int64_t cols, const int64_t *keys, const double *values,
                            char *buf, int64_t cap)
{
    if (strcmp(localeconv()->decimal_point, ".") != 0 || cap / ROW_BYTES(cols) < n)
        return -1;
    char *p = buf;
    for (int64_t i = 0; i < n; i++) {
        if (keys) {
            if (keys[i] < 0)
                *p++ = '-';
            /* the magnitude in unsigned arithmetic, which INT64_MIN needs */
            p = put_digits(p, keys[i] < 0 ? 0 - (uint64_t)keys[i] : (uint64_t)keys[i]);
            *p++ = ',';
        }
        for (int64_t j = 0; j < cols; j++) {
            p = format_double(p, values[i * cols + j]);
            *p++ = j + 1 < cols ? ',' : '\n';
        }
    }
    return p - buf;
}

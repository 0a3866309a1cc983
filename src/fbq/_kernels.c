/* The package's compiled loops, called through ctypes.
 *
 * Each loop is tested bit for bit against a Python reference, named below,
 * in the test suite's module `reference`.
 *
 * fbq_jump_chain runs the independent replications of fbq.simulation's
 * jump chain, each of them reference.run in Python, on up to one thread
 * per CPU, started and joined within the call; simulation._jump_chain
 * calls it.  Each replication's uniforms are CPython's
 * random.Random.random(): MT19937 (Matsumoto & Nishimura, ACM TOMACS 8,
 * 1998) continued from a state that random.Random(seed).getstate()
 * returns, and genrand_res53 on each pair of tempered words.  They are made
 * a block at a time: one pass regenerates the 624 words and a second
 * tempers and pairs them into 312 doubles in a buffer on the chain's stack
 * (Saito & Matsumoto, "SIMD-oriented Fast Mersenne Twister", 2008, do the
 * same), which is the reference generator's stream bit for bit.  Every
 * float operation is the Python loop's, in its order, so the two agree bit
 * for bit when this file is built with -ffp-contract=off and without
 * -ffast-math, on whichever thread a replication runs.
 *
 * fbq_speed_family solves a speed family of fbq.single from its layout and
 * the profiles' speed levels: it fills each tile of systems as
 * reference.family_stack builds them, in the same float operations, and
 * lu_envelope, the one elimination of both exact solvers' boundary
 * systems, scales it, taking the first pass from the row maxima, and
 * factors it: Gaussian elimination with partial pivoting on row envelopes
 * (Jennings, The Computer Journal 9, 1966) over the tile's systems in
 * lockstep, the system index innermost so that the row updates vectorise,
 * from the family's envelopes (family_envelopes), which its layout sets.
 * A tile's rows share one envelope, the union over its lanes (George & Ng,
 * SIAM J. Sci. Stat. Comput. 8, 1987, bound the fill that partial pivoting
 * adds), and a solution with no zero pivot is the dense elimination's bit
 * for bit.  Every tile fills all LU_TILE lanes; a tile of fewer profiles,
 * the last of a family or one profile alone, holds copies of its first
 * system in the rest.  The elimination does the float operations of
 * reference.lockstep, in their order, so each system gets the same answer
 * wherever it sits in the family, and on any CPU, since no BLAS is called.
 * A family of 2 FAMILY_SHARE profiles or more has its tiles claimed by
 * several threads, started and joined within the call (family_tiles), and
 * their outcomes are merged into the one-thread outcome; a system's float
 * operations do not depend on the thread that runs them, so the bits do
 * not depend on the thread count.  The thread that solves a tile also
 * finishes each profile (finish_system):
 * its level masses and row sums, then g0(1), L1, L2, L and the energy rate
 * by the mean-drift identities, from the power draws that numpy computes,
 * unclamped; after the join the calling thread finishes every profile
 * again, clamped, only where the family holds a negative value.
 * reference.family_solve finishes them in that order, by numpy's array
 * operations (reference.finish_sums and reference.metrics), and the two
 * agree bit for bit, each float operation done in numpy's order.
 * At these sizes (6 to 45 unknowns) a LAPACK call per system spends more
 * on its fixed cost than on arithmetic; batching small factorisations is
 * the usual remedy, and it pays only when the data movement around them is
 * batched too (Dongarra et al., Procedia Computer Science 108, 2017).
 * When a profile fails, singular or with a negative probability, the call
 * fills its system again after the merge and books Hager's condition
 * estimate of it (lane_condition) for the error message.
 *
 * fbq_ctmc_rectangle solves one rectangle of fbq.ctmc's truncated chain
 * in one call: it finds the states that the fixed state reaches, fills the
 * band system of their balance equations, as reference.band_system does
 * with a sparse graph search and bincounts, each cell summed in the
 * reference's order, and solves it by LAPACK's dgbsv, which it is handed
 * as a function pointer from scipy's cython_lapack, and scatters the
 * solution into the grid of states, which ctmc._finish then normalises, as
 * it does every rectangle's.
 *
 * fbq_pool_data builds in one call what every threshold of a pool of
 * fbq.multi shares, as reference.isolate_roots and then reference.pool_data
 * do.  First the zero search (search_zeros): Sturm sign counts and
 * bisection over the pool's leading minors (Wilkinson 1965), then Brent's
 * method (Brent 1973) on its determinant as scipy.optimize.brentq runs it,
 * over the recurrences of reference.sturm_sequence and multi._det_at.  Then,
 * at each zero, the left null vector of A(z_k), by the twisted
 * factorisation of the tridiagonal matrix, and the powers z_k^j; A(z)'s
 * Taylor coefficients at z = 1 and A0's null pair.  Every float operation
 * is the references' in their order, pool_matrix states A(z)'s entries once
 * for both parts, and the kernel root squares by libm's pow, as CPython
 * does, so the zeros, the counts, the data and each failure's data equal
 * the Python set-up's.  fbq_pool_system then
 * solves the thresholds that a call hands it, each whole and in order,
 * into one outcome row per threshold, and stops at the first row that
 * fails (reference.solve_rows).  It fills each boundary system
 * (reference.pool_fill) on its envelope: a balance row spans its 3 to 5
 * neighbours, the m - 1 zero rows and the idle row every column.
 * lu_system scales it there, taking the first pass from the row maxima that
 * it scales by, and factors it, visiting at each column only the rows whose
 * envelope reaches it, with the float operations of reference.lockstep on
 * one system in their order.  Then it sums the Taylor vectors b0, b1, b2
 * of the z = 1 cascade from the clamped solution in the order of the
 * unknowns (reference.pool_taylor), and runs the cascade on the bordered
 * system [[A0, u], [v^T, 0]], on its envelopes too, with row sums in its
 * own order (reference.cascade), and sums the solution's L1, L2, U and p
 * in Python's float order (pool_finish, reference.finish); every row
 * books the least |pivot|.  A failed system's message gets Hager's
 * condition estimate (lu_condition, reference.condition) from the same
 * factors, its solves reading only the envelopes; lane_condition makes
 * that estimate for a failed speed-family profile's system on the
 * family's envelopes.  None of these calls BLAS or LAPACK, so a pool gives
 * the same bits on every CPU.
 *
 * The two hot batched loops, a speed family's tile loop (family_tiles) and
 * the generator's block (mt_block), are built as AVX-512F, AVX2 and
 * baseline clones (FBQ_CLONES), and the dynamic loader picks the one this
 * CPU runs, through an ifunc, when the library is loaded.  The tile loop's
 * elimination, solve_tile, is cloned too, and each clone of family_tiles
 * calls its own, so that its compiler copies build as functions apart; the
 * other helpers they call that do float work are always inlined, since a
 * baseline function called from inside a wide clone would run its SSE code
 * with the vector state dirty, which cost a third of the family call when
 * finish_system was one.  No output bit depends on the clone: -ffp-contract=off
 * forbids fused multiply-adds, GCC vectorises no floating-point reduction
 * without -fassociative-math, and each lane of a vector does the float
 * operations that its system or word gets alone.  Where the compiler or
 * platform lacks target_clones or ifuncs (anything but GCC or clang on
 * x86-64 ELF with glibc), FBQ_CLONES is empty and the plain loops are
 * built for the baseline target.  The replication threads of
 * fbq_jump_chain and fbq_ctmc_rectangle are not cloned: the chain's time
 * is in its branches and the rectangle's in dgbsv.
 */
#include <float.h>
#include <math.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

/* Defined before this point (-DFBQ_CLONES=) it is left as given; an empty
 * definition builds the baseline loops alone. */
#ifndef FBQ_CLONES
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__) && defined(__ELF__) && \
    defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define FBQ_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#endif
#ifndef FBQ_CLONES
#define FBQ_CLONES
#endif

enum { MT_N = 624, MT_M = 397 };

/* The next word at index k, from the words at k, k + 1 and k + MT_M (mod MT_N). */
static uint32_t mt_twist(uint32_t at, uint32_t after, uint32_t far)
{
    uint32_t y = (at & 0x80000000u) | (after & 0x7fffffffu);
    return far ^ (y >> 1) ^ (-(y & 1u) & 0x9908b0dfu);
}

static uint32_t mt_temper(uint32_t y)
{
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    return y ^ (y >> 18);
}

/* One block of the stream: the 624 words of mt regenerated in place in the
 * reference genrand_int32's three segments, then tempered and paired into
 * the block's 312 genrand_res53 doubles, out[0 .. MT_N / 2 - 1] in stream
 * order.  A clone per vector width (FBQ_CLONES): the twist and temper
 * loops are integer work on independent words, and each double is the
 * one product and sum of its pair, so every clone gives the same bits. */
FBQ_CLONES static void mt_block(uint32_t *mt, double *out)
{
    int k = 0;
    for (; k < MT_N - MT_M; k++)
        mt[k] = mt_twist(mt[k], mt[k + 1], mt[k + MT_M]);
    for (; k < MT_N - 1; k++)
        mt[k] = mt_twist(mt[k], mt[k + 1], mt[k + MT_M - MT_N]);
    mt[MT_N - 1] = mt_twist(mt[MT_N - 1], mt[0], mt[MT_M - 1]);
    for (k = 0; k < MT_N / 2; k++) {
        uint32_t a = mt_temper(mt[2 * k]) >> 5, b = mt_temper(mt[2 * k + 1]) >> 6;
        out[k] = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
    }
}

/* The rate table of a simulated model.  Row r: holding time inv[r],
 * servers/rate srv[r], arrival probability pa[r] and the arrival's next row
 * up[r].  Its completions are moves first[r], first[r] + 1, ...: move k is
 * taken when u < bound[k] (the row's last bound is infinite) and is (phase,
 * moves on, next row below the clamp, next row at or above it) in move[4k ..
 * 4k + 3]. */
struct table {
    const double *inv, *srv, *pa, *bound;
    const int64_t *up, *first, *move;
    int64_t clamp;
};

/* One replication of the chain, from the empty system.  mt holds the 624
 * words of a generator state whose index is at its end, as
 * random.Random(seed) always leaves it, so the first draw regenerates them;
 * the chain advances mt in place.  Arrivals close a batch at each of
 * stops[0 .. nstops - 1]; sums gets the batch's time and the time integrals
 * of n0, nl and the servers, counts the final n0, nl, arrivals and
 * completions. */
static void chain_run(const struct table *tb, uint32_t *mt, const int64_t *stops, int64_t nstops,
                      double *sums, int64_t *counts)
{
    const double *inv = tb->inv, *srv = tb->srv, *pa = tb->pa, *bound = tb->bound;
    const int64_t *up = tb->up, *first = tb->first, *move = tb->move, clamp = tb->clamp;
    int64_t n0 = 0, n1 = 0, nl = 0, arrivals = 0, completions = 0, row = 0;
    double unif[MT_N / 2];
    int next = MT_N / 2;
    for (int64_t s = 0; s < nstops; s++) {
        double t = 0.0, ti = 0.0, tj = 0.0, tu = 0.0;
        while (arrivals < stops[s]) {
            double h = inv[row];
            t += h;
            ti += (double)n0 * h;
            tj += (double)nl * h;
            tu += srv[row];
            if (next == MT_N / 2) {
                mt_block(mt, unif);
                next = 0;
            }
            double u = unif[next++];
            if (u < pa[row]) {
                n0++;
                arrivals++;
                row = up[row];
                continue;
            }
            completions++;
            int64_t k = first[row];
            while (bound[k] <= u)
                k++;
            const int64_t *mv = move + 4 * k;
            int64_t c;
            if (mv[0] == 0) {
                c = --n0;
                if (mv[1]) {
                    n1++;
                    nl++;
                }
            } else if (mv[0] == 1) {
                c = --n1;
                if (!mv[1])
                    nl--;
            } else {
                nl--;
                c = nl - n1;
            }
            row = c >= clamp ? mv[3] : mv[2];
        }
        sums[4 * s] = t;
        sums[4 * s + 1] = ti;
        sums[4 * s + 2] = tj;
        sums[4 * s + 3] = tu;
    }
    counts[0] = n0;
    counts[1] = nl;
    counts[2] = arrivals;
    counts[3] = completions;
}

/* What the threads of one fbq_jump_chain call share: the table, the
 * replications and the next one that no thread has claimed. */
struct chain_job {
    const struct table *tb;
    int64_t reps;
    uint32_t *mt;
    const int64_t *at, *stops;
    double *sums;
    int64_t *counts;
    atomic_int_fast64_t next;
};

/* Claims replications one at a time until none is left and runs each. */
static void *chain_reps(void *arg)
{
    struct chain_job *job = arg;
    int64_t r;
    while ((r = atomic_fetch_add_explicit(&job->next, 1, memory_order_relaxed)) < job->reps)
        chain_run(job->tb, job->mt + r * MT_N, job->stops + job->at[r], job->at[r + 1] - job->at[r],
                  job->sums + 4 * job->at[r], job->counts + 4 * r);
    return NULL;
}

/* The reps independent replications of fbq.simulation, each
 * reference.run on its own generator state: replication r starts from the
 * 624 words mt[624 r ..] and closes its batches at stops[at[r] ..
 * at[r + 1] - 1], and chain_run writes its sums from sums[4 at[r]] and its
 * counts to counts[4 r .. 4 r + 3].  The table is that of struct table.
 * The replications are claimed by up to `threads` threads, the calling one
 * among them, which are started and joined within the call, so none
 * outlives it; a replication's float operations do not depend on the
 * thread that runs it, so no output bit depends on the thread count.  A
 * thread that cannot be started leaves its replications to the others. */
void fbq_jump_chain(int64_t reps, int threads, uint32_t *mt, const double *inv, const double *srv,
                    const double *pa, const int64_t *up, const int64_t *first, const double *bound,
                    const int64_t *move, int64_t clamp, const int64_t *at, const int64_t *stops,
                    double *sums, int64_t *counts)
{
    const struct table tb = {inv, srv, pa, bound, up, first, move, clamp};
    struct chain_job job = {&tb, reps, mt, at, stops, sums, counts, 0};
    int extra = threads - 1 < reps - 1 ? threads - 1 : (int)(reps - 1), started = 0;
    pthread_t *id = extra > 0 ? malloc(extra * sizeof *id) : NULL;
    while (id && started < extra && !pthread_create(&id[started], NULL, chain_reps, &job))
        started++;
    chain_reps(&job);
    for (int i = 0; i < started; i++)
        pthread_join(id[i], NULL);
    free(id);
}

enum { LU_TILE = 8 };   /* systems per tile of a speed family's elimination */

/* Books system k, with smallest |pivot| least and solution xk, in pivmin[k]
 * and summary: the first system whose least is below pivot_tol, the
 * first with a value below -neg_tol, and the count of negative values. */
static inline __attribute__((always_inline)) void note_system(int64_t k, int n, double least,
                                                              const double *xk, double pivot_tol,
                                                              double neg_tol, double *pivmin,
                                                              int64_t *summary)
{
    pivmin[k] = least;
    if (summary[0] < 0 && least < pivot_tol)
        summary[0] = k;
    for (int r = 0; r < n; r++) {
        if (xk[r] < 0.0) {
            summary[2]++;
            if (summary[1] < 0 && xk[r] < -neg_tol)
                summary[1] = k;
        }
    }
}

/* A tile of `lanes` n x n systems on its row envelopes: entry (r, c) of
 * lane s is t[(r n + c) lanes + s] and its right-hand side y[r lanes + s],
 * and row r holds columns first[r] .. last[r] in every lane.  Every entry
 * outside them is 0; on one lane, one system, its cell is never read, and
 * a tile of more lanes, whose cells are all written, holds 0 there.
 * lu_envelope factors it in place and keeps what the later solves of one
 * system need (lu_solve, lu_solve_transposed): each row's scale, the pivot
 * row of each column, the infinity norm of the row-scaled system, and the
 * rows of L's column j, rows[col[j]] .. rows[col[j + 1] - 1] in increasing
 * order.  start, order and active are its work. */
struct envelope {
    int n;
    double *t, *scale, norm;
    int64_t *perm;
    int *first, *last, *col, *rows, *start, *order, *active;
};

/* The bytes of work that env_init takes for a tile of `lanes` n x n
 * systems, t apart: a multiple of 8. */
static size_t env_bytes(int64_t n, int lanes)
{
    size_t ints = 6 * (size_t)n + 2 + (size_t)n * (size_t)(n - 1) / 2;
    return (sizeof(double) + sizeof(int64_t)) * (size_t)(n * lanes) + sizeof(int) * (ints + ints % 2);
}

/* The envelope of the tile t on env_bytes(n, lanes) bytes of work, which
 * start 8-byte aligned. */
static inline __attribute__((always_inline)) void env_init(struct envelope *e, int n, int lanes,
                                                           double *t, void *work)
{
    e->n = n;
    e->t = t;
    e->scale = work;
    e->perm = (int64_t *)(e->scale + n * lanes);
    e->first = (int *)(e->perm + n * lanes);
    e->last = e->first + n;
    e->col = e->last + n;
    e->start = e->col + n + 1;
    e->order = e->start + n + 1;
    e->active = e->order + n;
    e->rows = e->active + n;
}

/* The rows of column j's elimination step, which become L's column j:
 * rows[col[j]] .. rows[col[j + 1] - 1], the rows below j whose envelope
 * reaches j, in row order.  They are the rows of column j - 1's step that
 * still reach j, and each row whose envelope starts at j, put in its
 * place.  A row whose envelope ends before j holds only zeros from j on,
 * and no later step reaches it again.  Integer work alone, so it is built
 * once and called from every clone. */
static void step_rows(struct envelope *e, int j)
{
    int *rows = e->rows, *col = e->col, *start = e->start, n = e->n;
    if (j == 0) {   /* order[start[c] .. start[c + 1] - 1]: the rows whose envelope starts at c */
        for (int c = 0; c <= n; c++)
            start[c] = 0;
        for (int r = 0; r < n; r++)
            start[e->first[r] + 1]++;
        for (int c = 0; c < n; c++)
            start[c + 1] += start[c];
        for (int r = 0; r < n; r++)
            e->order[start[e->first[r]]++] = r;
        for (int c = n; c > 0; c--)
            start[c] = start[c - 1];
        start[0] = col[0] = 0;
    }
    int k = col[j];
    for (int a = j ? col[j - 1] : 0; a < col[j]; a++)
        if (rows[a] > j && e->last[rows[a]] >= j)
            rows[k++] = rows[a];
    for (int b = e->start[j]; b < e->start[j + 1]; b++) {
        int r = e->order[b], i = k;
        if (r <= j)
            continue;
        for (; i > col[j] && rows[i - 1] > r; i--)
            rows[i] = rows[i - 1];
        rows[i] = r;
        k++;
    }
    col[j + 1] = k;
}

/* Rows t1 and t2 lose their multipliers l1 and l2 times the pivot row top
 * over columns from .. end - 1 in each lane, each cell as the dense
 * elimination updates it; two rows at a time share the loads of top. */
static inline __attribute__((always_inline)) void eliminate_two(int from, int end, int lanes,
                                                                double *restrict t1,
                                                                const double *restrict l1,
                                                                double *restrict t2,
                                                                const double *restrict l2,
                                                                const double *restrict top)
{
    for (int c = from; c < end; c++) {
        for (int s = 0; s < lanes; s++) {
            t1[c * lanes + s] -= l1[s] * top[c * lanes + s];
            t2[c * lanes + s] -= l2[s] * top[c * lanes + s];
        }
    }
}

/* eliminate_two for one row. */
static inline __attribute__((always_inline)) void eliminate_row(int from, int end, int lanes,
                                                                double *restrict tr,
                                                                const double *restrict l,
                                                                const double *restrict top)
{
    for (int c = from; c < end; c++)
        for (int s = 0; s < lanes; s++)
            tr[c * lanes + s] -= l[s] * top[c * lanes + s];
}

/* In each lane s whose pivot row p[s] is not j, rows j and p[s] swap their
 * cells from column j on, a cell past a row's envelope read as 0 (a tile
 * holds 0 there), and their y too.  On one lane the two rows then swap
 * their last columns; on a tile a swap in any lane widens both rows to the
 * later of the two, so that each row's envelope holds it in every lane. */
static inline __attribute__((always_inline)) void swap_rows(struct envelope *e, int lanes, int j,
                                                            const int64_t *p, double *restrict y)
{
    int n = e->n, *last = e->last, lj = last[j], wide = lj;
    for (int s = 0; s < lanes; s++) {
        int64_t q = p[s];
        if (q == j)
            continue;
        int lp = last[q];
        double *restrict tj = e->t + (int64_t)j * n * lanes + s, *restrict tp = e->t + q * n * lanes + s;
        for (int c = j; c <= (lj > lp ? lj : lp); c++) {
            double v = lanes > 1 || c <= lj ? tj[c * lanes] : 0.0;
            tj[c * lanes] = lanes > 1 || c <= lp ? tp[c * lanes] : 0.0;
            tp[c * lanes] = v;
        }
        double v = y[j * lanes + s];
        y[j * lanes + s] = y[q * lanes + s];
        y[q * lanes + s] = v;
        last[q] = lanes == 1 || lj > lp ? lj : lp;
        wide = lanes == 1 || lp > wide ? lp : wide;
    }
    last[j] = wide;
}

/* U x = y for the U that lu_envelope leaves in e, y overwritten by x, row
 * by row from the last: each y_r loses t_rc y_c for c from the row's last
 * column down to r + 1 and is then divided by t_rr, which are the dense
 * elimination's operations on y_r in its order. */
static inline __attribute__((always_inline)) void back_substitute(const struct envelope *e, int lanes,
                                                                  double *restrict y)
{
    for (int r = e->n - 1; r >= 0; r--) {
        const double *tr = e->t + (int64_t)r * e->n * lanes;
        double v[LU_TILE];
        for (int s = 0; s < lanes; s++)
            v[s] = y[r * lanes + s];
        for (int c = e->last[r]; c > r; c--)
            for (int s = 0; s < lanes; s++)
                v[s] -= tr[c * lanes + s] * y[c * lanes + s];
        for (int s = 0; s < lanes; s++)
            y[r * lanes + s] = v[s] / tr[r * lanes + s];
    }
}

/* The elimination of reference.lockstep on the tile e of `lanes` systems
 * (1 or LU_TILE, a constant where it is inlined), each lane's own: each
 * row and its y are divided by the row's largest |t_rc| in that lane;
 * then for each column j the pivot is the first largest |t_rj|, r >= j (a
 * NaN counts as largest, as numpy's argmax has it), rows r and j swap from
 * column j on, and each row r > j loses l = t_rj / t_jj times row j (l =
 * t_rj / 1 when the pivot is 0, since then t_rj is 0 too), and so does
 * its y; l is kept in place of t_rj.  Back substitution ends the solve, y
 * ends as the solution and least[s] as the smallest |pivot| of lane s
 * (NaN if one is NaN).  Each float operation on a cell that may hold a
 * nonzero is done in that order, on the envelopes: column j's step visits
 * only the rows of step_rows, for the pivot too, once the pivot row is
 * widened to column j with zeros.  A row whose l is 0 in every lane and
 * the pivot row's tail that is 0 in every lane are skipped: with |l| <= 1
 * and finite entries the skipped products are zeros, which can flip only
 * the sign of a zero cell of the factors.  Each other row's envelope grows
 * as far as the pivot row's fill reaches, a system's new cells zeroed;
 * then the rows are updated two at a time.  The scaling loop makes the
 * first pass: before any elimination step, 1 is returned if an entry or
 * right-hand side is not finite (flagged apart from the largest |t_rc|,
 * which skips a NaN), else 2 if a row's largest |t_rc| is 0 in some lane;
 * else 0.  On one lane the row scales, the pivot rows and the norm are
 * kept for lu_solve and lu_condition. */
static inline __attribute__((always_inline)) int lu_envelope(struct envelope *e, int lanes,
                                                             double *restrict y, double *least)
{
    int n = e->n, *first = e->first, *last = e->last, *active = e->active;
    int64_t seen[LU_TILE];   /* each lane's first pass: 1 for a non-finite value, 2 for a zero row */
    double *t = e->t, big[LU_TILE], piv[LU_TILE], yj[LU_TILE];
    int64_t p[LU_TILE];
    e->norm = 0.0;
    for (int s = 0; s < lanes; s++)
        seen[s] = 0;
    for (int r = 0; r < n; r++) {
        double *tr = t + (int64_t)r * n * lanes, sum = 0.0;
        for (int s = 0; s < lanes; s++)
            big[s] = 0.0;
        for (int c = first[r]; c <= last[r]; c++) {
            for (int s = 0; s < lanes; s++) {
                double v = fabs(tr[c * lanes + s]);
                big[s] = v > big[s] ? v : big[s];
                seen[s] |= !(v <= DBL_MAX);
            }
        }
        for (int s = 0; s < lanes; s++) {
            seen[s] |= !(fabs(y[r * lanes + s]) <= DBL_MAX);
            seen[s] |= (big[s] == 0.0) << 1;
        }
        for (int c = first[r]; c <= last[r]; c++) {
            for (int s = 0; s < lanes; s++)
                tr[c * lanes + s] /= big[s];
            if (lanes == 1)
                sum += fabs(tr[c]);
        }
        for (int s = 0; s < lanes; s++) {
            y[r * lanes + s] /= big[s];
            e->scale[r * lanes + s] = big[s];
        }
        e->norm = sum > e->norm ? sum : e->norm;
    }
    for (int s = 1; s < lanes; s++)
        seen[0] |= seen[s];
    if (seen[0])
        return seen[0] & 1 ? 1 : 2;
    for (int j = 0; j < n; j++) {
        double *top = t + (int64_t)j * n * lanes;
        step_rows(e, j);
        int *rows = e->rows + e->col[j], step = e->col[j + 1] - e->col[j];
        /* the pivot row widened to column j: at most one of these spans holds a column */
        for (int c = first[j] > j ? j : last[j] + 1; c < first[j] || (c > last[j] && c <= j); c++)
            for (int s = 0; s < lanes; s++)
                top[c * lanes + s] = 0.0;
        first[j] = first[j] < j ? first[j] : j;
        last[j] = last[j] > j ? last[j] : j;
        for (int s = 0; s < lanes; s++) {
            big[s] = fabs(top[j * lanes + s]);
            p[s] = j;
        }
        for (int i = 0; i < step; i++) {
            const double *tr = t + ((int64_t)rows[i] * n + j) * lanes;
            for (int s = 0; s < lanes; s++) {
                double v = fabs(tr[s]);
                int take = big[s] == big[s] && !(v <= big[s]);
                big[s] = take ? v : big[s];
                p[s] = take ? rows[i] : p[s];
            }
        }
        swap_rows(e, lanes, j, p, y);
        for (int s = 0; s < lanes; s++) {
            yj[s] = y[j * lanes + s];
            e->perm[j * lanes + s] = p[s];
            least[s] = j == 0 || big[s] < least[s] || big[s] != big[s] ? big[s] : least[s];
            piv[s] = top[j * lanes + s] == 0.0 ? 1.0 : top[j * lanes + s];
        }
        int end = last[j] + 1, used = 0;
        for (int64_t zero = 1; zero && end > j + 1; end -= zero)   /* the tail that is 0 in every lane */
            for (int s = 0; s < lanes; s++)
                zero &= top[(end - 1) * lanes + s] == 0.0;
        for (int i = 0; i < step; i++) {
            int r = rows[i];
            int64_t live = 0;
            double *tr = t + (int64_t)r * n * lanes;
            for (int s = 0; s < lanes; s++) {
                tr[j * lanes + s] /= piv[s];
                live |= tr[j * lanes + s] != 0.0;
            }
            if (!live)
                continue;
            for (int c = last[r] + 1; lanes == 1 && c < end; c++)
                tr[c] = 0.0;
            last[r] = last[r] > end - 1 ? last[r] : end - 1;
            for (int s = 0; s < lanes; s++)
                y[r * lanes + s] -= tr[j * lanes + s] * yj[s];
            active[used++] = r;
        }
        for (int i = 0; i + 1 < used; i += 2) {
            double *t1 = t + (int64_t)active[i] * n * lanes;
            double *t2 = t + (int64_t)active[i + 1] * n * lanes;
            eliminate_two(j + 1, end, lanes, t1, t1 + j * lanes, t2, t2 + j * lanes, top);
        }
        if (used % 2) {
            double *t1 = t + (int64_t)active[used - 1] * n * lanes;
            eliminate_row(j + 1, end, lanes, t1, t1 + j * lanes, top);
        }
    }
    back_substitute(e, lanes, y);
    return 0;
}

/* lu_envelope on one system: the pool loop's, its cascade's, lane_condition's. */
static int lu_system(struct envelope *e, double *y, double *least)
{
    return lu_envelope(e, 1, y, least);
}

/* S x = y for the row-scaled system S that lu_system factored into e, y
 * overwritten by x: the elimination's steps on y, then back_substitute,
 * each as lu_envelope does them (y is not row-scaled here). */
static void lu_solve(const struct envelope *e, double *y)
{
    int n = e->n;
    const double *t = e->t;
    for (int j = 0; j < n; j++) {
        int64_t p = e->perm[j];
        double v = y[j];
        y[j] = y[p];
        y[p] = v;
        for (int i = e->col[j]; i < e->col[j + 1]; i++) {
            int r = e->rows[i];
            if (t[(int64_t)r * n + j] != 0.0)
                y[r] -= t[(int64_t)r * n + j] * y[j];
        }
    }
    back_substitute(e, 1, y);
}

/* S^T x = y for the S of lu_solve, y overwritten by x: U^T, column by
 * column, then the transposes of the elimination's steps in reverse, each
 * a sum over the rows of L's column in turn. */
static void lu_solve_transposed(const struct envelope *e, double *restrict y)
{
    int n = e->n;
    const double *t = e->t;
    for (int j = 0; j < n; j++) {
        const double *tj = t + (int64_t)j * n;
        double v = y[j] /= tj[j];
        for (int c = j + 1; c <= e->last[j]; c++)
            y[c] -= tj[c] * v;
    }
    for (int j = n - 1; j >= 0; j--) {
        double v = y[j];
        for (int i = e->col[j]; i < e->col[j + 1]; i++)
            v -= t[(int64_t)e->rows[i] * n + j] * y[e->rows[i]];
        int64_t p = e->perm[j];
        y[j] = y[p];
        y[p] = v;
    }
}

static double abs_sum(int n, const double *x)
{
    double sum = 0.0;
    for (int i = 0; i < n; i++)
        sum += fabs(x[i]);
    return sum;
}

/* The first index of the largest |x_i|. */
static int arg_abs_max(int n, const double *x)
{
    int j = 0;
    for (int i = 1; i < n; i++)
        j = fabs(x[i]) > fabs(x[j]) ? i : j;
    return j;
}

/* x_i = sign(x_i) (+1 at 0) in place; returns 1 if that equals xi, then
 * copies x to xi. */
static int take_signs(int n, double *x, double *xi)
{
    int same = 1;
    for (int i = 0; i < n; i++) {
        x[i] = x[i] >= 0.0 ? 1.0 : -1.0;
        same &= x[i] == xi[i];
        xi[i] = x[i];
    }
    return same;
}

/* The infinity-norm condition number of the row-scaled system S that
 * lu_system factored into e, estimated as norm ||S^-T||_1 by Hager's
 * method as LAPACK's dlacn2 runs it (Higham, ACM TOMS 14, 1988): at most
 * five steps from x = (1/n, ..., 1/n), then the alternating-sign vector's
 * estimate if larger.  Solves with S^-T are lu_solve_transposed, with S^-1
 * lu_solve, both on the envelopes; x and xi are n doubles of work.
 * Infinite if a pivot is 0 or the estimate is not finite. */
static double lu_condition(const struct envelope *e, double *x, double *xi)
{
    int n = e->n;
    for (int j = 0; j < n; j++)
        if (e->t[(int64_t)j * n + j] == 0.0)
            return INFINITY;
    for (int i = 0; i < n; i++)
        x[i] = 1.0 / n;
    lu_solve_transposed(e, x);
    double est = abs_sum(n, x);
    if (n > 1) {
        for (int i = 0; i < n; i++)
            xi[i] = 0.0;
        take_signs(n, x, xi);
        lu_solve(e, x);
        int j = arg_abs_max(n, x);
        for (int step = 2;; step++) {
            for (int i = 0; i < n; i++)
                x[i] = i == j ? 1.0 : 0.0;
            lu_solve_transposed(e, x);
            double old = est;
            est = abs_sum(n, x);
            if (take_signs(n, x, xi) || est <= old)
                break;
            lu_solve(e, x);
            int last = j;
            j = arg_abs_max(n, x);
            if (fabs(x[last]) == fabs(x[j]) || step == 5)
                break;
        }
        for (int i = 0; i < n; i++)
            x[i] = (i % 2 ? -1.0 : 1.0) * (1.0 + (double)i / (double)(n - 1));
        lu_solve_transposed(e, x);
        double alt = 2.0 * abs_sum(n, x) / (3.0 * (double)n);
        est = alt > est ? alt : est;
    }
    double cond = e->norm * est;
    return cond < INFINITY ? cond : INFINITY;
}

/* The layout of a speed family of fbq.single: K levels and n = (K + 1)(K +
 * 2) / 2 unknowns pi_{i,t-i}, ordered by level t, then by i, the first m =
 * K (K + 1) / 2 of them below level K.  Balance entry e of the profile
 * with speed levels s_0 .. s_K sits at row at[3e] and column at[3e + 1]
 * and is coef[3e] + (s_{at[3e + 2]} coef[3e + 1]) coef[3e + 2], that is
 * lam lam_coef + (s_level rate) factor; rows m .. n - 2 are the K
 * Maclaurin rows `shared` (K, n), and row n - 1 is the work-conservation
 * row, whose right-hand side is s_K - work.  rho1, rho2 and q are the
 * model's top-speed loads and branch probability, which the mean-drift
 * identities of the finish read (finish_system). */
struct family {
    int K, n, m;
    int64_t entries;
    const int64_t *at;
    const double *coef, *shared;
    double work, rho1, rho2, q;
    int *env;   /* row r's envelope env[r] .. env[n + r], for every tile (family_envelopes) */
};

/* The envelopes of the family f's systems, from its layout alone: a
 * balance row spans the columns of its entries, a Maclaurin row those of
 * its nonzero values, and the work row the m unknowns below level K. */
static void family_envelopes(const struct family *f)
{
    int n = f->n, *first = f->env, *last = f->env + n;
    for (int r = 0; r < n; r++) {
        first[r] = r < n - 1 ? n : 0;
        last[r] = r < n - 1 ? -1 : f->m - 1;
    }
    for (int64_t i = 0; i < f->entries + (int64_t)f->K * n; i++) {   /* entries, then shared */
        int64_t k = i - f->entries, r = k < 0 ? f->at[3 * i] : f->m + k / n;
        int64_t c = k < 0 ? f->at[3 * i + 1] : k % n;
        if (k < 0 || f->shared[k] != 0.0) {
            first[r] = c < first[r] ? (int)c : first[r];
            last[r] = c > last[r] ? (int)c : last[r];
        }
    }
}

/* The lu_condition estimate that fbq.linsys quotes for a failed family
 * profile, the system in lane 0 of the family f's tile t: copied to the
 * tile's head row-major, each cell read before one is written over it, it
 * is factored there by lu_system on the family's envelopes, the rest of
 * the tile its work (it passed its tile's first pass: the status is 0). */
static double lane_condition(const struct family *f, double *t)
{
    int n = f->n;
    double least = 0.0, *work = t + n * n;
    for (int i = 0; i < n * n; i++)
        t[i] = t[i * LU_TILE];
    struct envelope e;
    env_init(&e, n, 1, t, work + 3 * n);
    for (int i = 0; i < 2 * n; i++)   /* e.last follows e.first */
        e.first[i] = f->env[i];
    for (int i = 0; i < n; i++)
        work[i] = 0.0;
    lu_system(&e, work, &least);
    return lu_condition(&e, work + n, work + 2 * n);
}

/* The tile core of fbq_speed_family: lu_envelope on the LU_TILE lanes of
 * the tile e, y of the `used` systems k0, k0 + 1, ..., from the family
 * f's envelopes, the lanes past `used` holding copies of the first, whose
 * results are dropped; unless lu_envelope returns a first-pass status,
 * which solve_tile returns, each solution goes to x[k] and is booked by
 * note_system.  A clone per vector width (FBQ_CLONES), as family_tiles. */
FBQ_CLONES static int solve_tile(const struct family *f, struct envelope *e, int used, int64_t k0,
                                 double *y, double pivot_tol, double neg_tol, double *x,
                                 double *pivmin, int64_t *summary)
{
    int n = f->n;
    double least[LU_TILE];
    for (int i = 0; i < 2 * n; i++)   /* e->last follows e->first */
        e->first[i] = f->env[i];
    int status = lu_envelope(e, LU_TILE, y, least);
    for (int s = 0; s < used && !status; s++) {
        double *xk = x + (k0 + s) * n;
        for (int r = 0; r < n; r++)
            xk[r] = y[r * LU_TILE + s];
        note_system(k0 + s, n, least[s], xk, pivot_tol, neg_tol, pivmin, summary);
    }
    return status;
}

/* Lane s of the tile (a, y) gets the system and right-hand side of the
 * profile whose speed levels are row s of lev (row 0 for the lanes from
 * `used` on), as reference.family_stack builds them: the balance entries
 * and the Maclaurin rows, the work row s_K - s_t [t > 0] over the unknowns
 * of each level t < K, zero elsewhere, and y zero but for s_K - work in its
 * last row.  The levels are first copied to lv in lane order, level t of
 * lane s at lv[t LU_TILE + s], so that each entry is made for all lanes in
 * one vectorised loop with the operations of one lane alone. */
static inline __attribute__((always_inline)) void fill_lanes(const struct family *f,
                                                             const double *lev, int used, double *a,
                                                             double *y, double *lv)
{
    int n = f->n, K = f->K;
    for (int t = 0; t <= K; t++)
        for (int s = 0; s < LU_TILE; s++)
            lv[t * LU_TILE + s] = lev[(s < used ? s : 0) * (K + 1) + t];
    for (int i = 0; i < n * n * LU_TILE; i++)
        a[i] = 0.0;
    for (int64_t e = 0; e < f->entries; e++) {
        const int64_t *at = f->at + 3 * e;
        double c0 = f->coef[3 * e], c1 = f->coef[3 * e + 1], c2 = f->coef[3 * e + 2];
        double *restrict cell = a + (at[0] * n + at[1]) * LU_TILE;
        const double *restrict level = lv + at[2] * LU_TILE;
        for (int s = 0; s < LU_TILE; s++)
            cell[s] = c0 + (level[s] * c1) * c2;
    }
    for (int i = 0; i < K * n; i++)
        for (int s = 0; s < LU_TILE; s++)
            a[(f->m * n + i) * LU_TILE + s] = f->shared[i];
    const double *top = lv + K * LU_TILE;
    for (int t = 0, u = 0; t < K; t++)
        for (int i = 0; i <= t; i++, u++)
            for (int s = 0; s < LU_TILE; s++)
                a[((n - 1) * n + u) * LU_TILE + s] =
                    top[s] - lv[t * LU_TILE + s] * (t > 0 ? 1.0 : 0.0);
    for (int i = 0; i < (n - 1) * LU_TILE; i++)
        y[i] = 0.0;
    for (int s = 0; s < LU_TILE; s++)
        y[(n - 1) * LU_TILE + s] = top[s] - f->work;
}

/* The energy sum of the finish: the products a[i] b[i], i < n, summed as
 * numpy's add.reduce sums a contiguous row, its pairwise_sum: fewer than 8
 * terms in turn from -0.0; up to PAIRWISE_BLOCK terms in 8 accumulators,
 * each started at its first term and combined as ((r0 + r1) + (r2 + r3)) +
 * ((r4 + r5) + (r6 + r7)), the remainder past the last multiple of 8 then
 * added in turn; longer rows split in two at a multiple of 8 near the
 * middle (pairwise_sum).  A reduction adds that sum to its initial 0.0. */
enum { PAIRWISE_BLOCK = 128 };

static inline __attribute__((always_inline)) double block_sum(int n, const double *a,
                                                              const double *b)
{
    if (n < 8) {
        double res = -0.0;
        for (int i = 0; i < n; i++)
            res += a[i] * b[i];
        return res;
    }
    double r[8];
    int i = 8;
    for (int j = 0; j < 8; j++)
        r[j] = a[j] * b[j];
    for (; i < n - n % 8; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += a[i + j] * b[i + j];
    double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i] * b[i];
    return res;
}

static double pairwise_sum(int n, const double *a, const double *b)
{
    if (n <= PAIRWISE_BLOCK)
        return block_sum(n, a, b);
    int half = n / 2 - n / 2 % 8;
    return pairwise_sum(half, a, b) + pairwise_sum(n - half, a + half, b + half);
}

/* The finish of single._Family.solve from the solution x of the profile
 * with speed levels lev and power draws pw (lev[t] ** alpha, by numpy):
 * p[t] = P(level t) for t < K, and out[0], out[stride], ... out[5 stride]
 * get the tail mass, g0(1), L1, L2, L and the energy rate.  The row sums
 * first: the tail mass 1 - sum p, pi_idle_fg = sum_j pi_0j, iw = sum i w_ij,
 * jw = sum j w_ij and w_busy = sum_{i>0} w_ij, with w_ij = (1 - s_{i+j} /
 * s_K) pi_ij.  p[t] is its level's first pi plus (-0.0 plus the others in
 * turn), and every other sum adds its terms in turn to 0.0, by level and
 * then by i.  Then single._drift_means' identities, each operation in the
 * order that Python evaluates them, with its scalar parts such as
 * 1.0 - rho1 and q * R formed first, and the energy rate 0.0 plus the
 * pairwise sum of p[t] pw[t], plus pw[K] times the tail mass, as
 * reference.metrics computes them.  With clamp set, x is read as
 * linsys._checked clamps it, a value below 0 or -0.0 as 0.0. */
static inline __attribute__((always_inline)) void finish_system(const struct family *f,
                                                                const double *lev,
                                                                const double *pw, const double *x,
                                                                int clamp, double *p, double *out,
                                                                int64_t stride)
{
    int K = f->K;
    double total = 0.0, idle = 0.0, iw = 0.0, jw = 0.0, busy = 0.0;
    for (int t = 0, u = 0; t < K; t++) {
        double first = 0.0, rest = -0.0;
        for (int i = 0; i <= t; i++, u++) {
            double v = x[u];
            if (clamp && !(v > 0.0) && v == v)
                v = 0.0;
            double w = (1.0 - lev[t] / lev[K]) * v;
            if (i == 0)
                first = v;
            else
                rest += v;
            idle += v * (i == 0 ? 1.0 : 0.0);
            iw += w * (double)i;
            jw += w * (double)(t - i);
            busy += w * (i > 0 ? 1.0 : 0.0);
        }
        p[t] = first + rest;
        total += p[t];
    }
    double tail = 1.0 - total, rho1 = f->rho1, q = f->q;
    double L1 = (rho1 + iw) / (1.0 - rho1);
    double R = rho1 + q * f->rho2;
    double L2 = (jw + q * R * L1 + q * f->rho2) / (1.0 - R);
    double energy = K <= PAIRWISE_BLOCK ? block_sum(K, p, pw) : pairwise_sum(K, p, pw);
    out[0] = tail;
    out[stride] = 1.0 - rho1 - idle - busy;
    out[2 * stride] = L1;
    out[3 * stride] = L2;
    out[4 * stride] = L1 + L2;
    out[5 * stride] = (0.0 + energy) + pw[K] * tail;
}

/* A family is split over as many threads as each get FAMILY_SHARE profiles
 * or more, so one of fewer than 2 FAMILY_SHARE profiles is solved on the
 * calling thread alone: starting and joining a thread costs more than a
 * smaller share of the family.  Each thread claims FAMILY_RUN tiles at a
 * time. */
enum { FAMILY_RUN = 4, FAMILY_SHARE = 128 };

/* What the threads of one fbq_speed_family call share: the family, its
 * profiles and outputs, the next tile that no thread has claimed, and the
 * first-pass outcomes found so far (lu_envelope's statuses as bits). */
struct family_job {
    const struct family *f;
    const double *levels, *power;
    int64_t count, tiles;
    double pivot_tol, neg_tol;
    double *x, *pivmin, *p, *out;
    atomic_int_fast64_t next;
    atomic_int seen;
};

/* One thread's share of a job: its own tile, with the work of its
 * envelopes, and, once it is done, the note_system summary of the systems
 * it solved. */
struct family_part {
    struct family_job *job;
    double *tile;
    int64_t summary[3];
    pthread_t id;
};

/* Claims FAMILY_RUN tiles at a time until none is left; fills each tile by
 * fill_lanes, solves it by solve_tile, whose row scaling makes the first
 * pass, and, while no tile anywhere has failed that pass, finishes each
 * profile, unclamped, by finish_system.  Stops once a non-finite entry has
 * been found anywhere, since that decides the call's status.  A thread
 * claims tiles in increasing order, so its summary holds the first of its
 * systems to be singular and the first with a value below -neg_tol.  A
 * clone per vector width (FBQ_CLONES), each with its own copy of the
 * inlined fill and finish, calling its own clone of solve_tile: a tile's
 * row operations run across its LU_TILE lanes, one system to a lane, and
 * the finish of one profile does its operations in their order, so every
 * clone gives the same bits. */
FBQ_CLONES static void *family_tiles(void *arg)
{
    struct family_part *part = arg;
    struct family_job *job = part->job;
    const struct family *f = job->f;
    int n = f->n;
    double *t = part->tile, *y = t + LU_TILE * n * n, *lv = y + LU_TILE * n;
    int64_t summary[3] = {-1, -1, 0}, first;
    struct envelope e;
    env_init(&e, n, LU_TILE, t, lv + LU_TILE * (f->K + 1));
    while ((first = atomic_fetch_add_explicit(&job->next, FAMILY_RUN, memory_order_relaxed)) <
           job->tiles) {
        for (int64_t tile = first; tile < first + FAMILY_RUN && tile < job->tiles; tile++) {
            int64_t k0 = tile * LU_TILE;
            int used = job->count - k0 < LU_TILE ? (int)(job->count - k0) : LU_TILE;
            const double *lev = job->levels + k0 * (f->K + 1);
            fill_lanes(f, lev, used, t, y, lv);
            int seen = solve_tile(f, &e, used, k0, y, job->pivot_tol, job->neg_tol, job->x,
                                  job->pivmin, summary);
            if (seen)
                atomic_fetch_or_explicit(&job->seen, seen, memory_order_relaxed);
            seen = atomic_load_explicit(&job->seen, memory_order_relaxed);
            if (seen & 1)
                goto done;
            if (seen)
                continue;
            for (int64_t k = k0; k < k0 + used; k++)
                finish_system(f, job->levels + k * (f->K + 1), job->power + k * (f->K + 1),
                              job->x + k * n, 0, job->p + k * f->K, job->out + k, job->count);
        }
    }
done:
    for (int i = 0; i < 3; i++)
        part->summary[i] = summary[i];
    return NULL;
}

/* The solves of a speed family, single._Family.solve: for the count
 * profiles whose speed levels s_0 .. s_K are the rows of `levels` (count,
 * K + 1), each tile of systems is filled by fill_lanes and solved by
 * solve_tile, its first pass taken as lu_envelope scales it, so x, pivmin and
 * summary are reference.lockstep's on the stack that reference.family_stack
 * builds.
 * Its statuses are too: 1 if an entry is not finite anywhere in the family,
 * else 2 if a row is all zeros, each with summary (-1, -1, 0), else 0 once
 * every system is solved, or 3 if the tiles cannot be allocated.  With
 * status 0, p (count, K) holds each profile's level masses and the rows
 * of out (6, count) its tail mass, g0(1), L1, L2, L and energy rate, by
 * finish_system from the profile's row of `power` (count, K + 1), with x
 * clamped if any value in the family is negative; and cond holds the
 * condition estimate of the profile whose error linsys._checked raises,
 * the first singular one (summary[0]), else the first with a value below
 * -neg_tol (summary[1]), or 0 if there is none.  That profile's system is
 * filled again by fill_lanes after the merge, and lane_condition takes the
 * estimate from lane 0 on that tile.
 *
 * A family of 2 FAMILY_SHARE profiles or more is solved by up to `threads`
 * threads, the calling one among them (family_tiles), which are started
 * and joined within the call, so none outlives it and a fork after it is
 * safe.  The outcome is merged into the one-thread outcome: status 1 if any
 * thread found a non-finite entry, else 2 if any found a zero row; the
 * lowest singular system and the lowest with a value below -neg_tol over
 * the threads' summaries, and the sum of their counts of negative values.
 * Each system gets the same float operations on whichever thread solves
 * it, and so does its finish: the solving thread finishes it unclamped, and
 * the calling thread finishes every profile again, clamped, after the join
 * if that count is above 0.  So every output is the same bits for any thread
 * count.  A thread that cannot be started leaves its tiles to the others. */
int fbq_speed_family(int64_t count, int K, int64_t entries, const int64_t *at, const double *coef,
                     const double *shared, double work, double rho1, double rho2, double q,
                     const double *levels, const double *power, double pivot_tol, double neg_tol,
                     int threads, double *x, double *pivmin, int64_t *summary, double *p, double *out,
                     double *cond)
{
    int n = (K + 1) * (K + 2) / 2;
    int64_t tiles = (count + LU_TILE - 1) / LU_TILE, shares = count / FAMILY_SHARE;
    int parts = shares < 2 || threads < 2 ? 1 : (shares < threads ? (int)shares : threads);
    /* each thread's tile ends 64 bytes or more before the next begins, so
     * that no cache line is written by two threads */
    size_t tile = sizeof(double) * LU_TILE * (n * (n + 1) + K + 1) + env_bytes(n, LU_TILE);
    tile = (tile + 127) / 64 * 64;
    struct family_part *part = malloc(parts * (sizeof *part + tile) + 2 * sizeof(int) * n);
    if (!part)
        return 3;
    int *env = (int *)((char *)(part + parts) + parts * tile);
    const struct family f = {K, n, K * (K + 1) / 2, entries, at, coef, shared,
                             work, rho1, rho2, q, env};
    family_envelopes(&f);
    struct family_job job = {&f, levels, power, count, tiles, pivot_tol, neg_tol, x, pivmin, p, out,
                             0, 0};
    int started = 1;
    for (int i = 0; i < parts; i++) {
        part[i].job = &job;
        part[i].tile = (double *)((char *)(part + parts) + i * tile);
    }
    while (started < parts && !pthread_create(&part[started].id, NULL, family_tiles, part + started))
        started++;
    family_tiles(part);
    for (int i = 1; i < started; i++)
        pthread_join(part[i].id, NULL);
    int seen = atomic_load(&job.seen);
    summary[0] = summary[1] = -1;
    summary[2] = 0;
    for (int i = 0; i < started && !seen; i++) {
        for (int j = 0; j < 2; j++) {
            int64_t k = part[i].summary[j];
            if (k >= 0 && (summary[j] < 0 || k < summary[j]))
                summary[j] = k;
        }
        summary[2] += part[i].summary[2];
    }
    double est = 0.0;
    if (!seen && (summary[0] >= 0 || summary[1] >= 0)) {
        int64_t k = summary[0] >= 0 ? summary[0] : summary[1];
        double *t = part->tile, *y = t + LU_TILE * f.n * f.n;
        fill_lanes(&f, levels + k * (K + 1), 1, t, y, y + LU_TILE * f.n);
        est = lane_condition(&f, t);
    }
    free(part);
    if (seen)
        return seen & 1 ? 1 : 2;
    *cond = est;
    if (summary[2] > 0)
        for (int64_t k = 0; k < count; k++)
            finish_system(&f, levels + k * (K + 1), power + k * (K + 1), x + k * f.n, 1, p + k * K,
                          out + k, count);
    return 0;
}

/* The pool (lam, mu1, mu2, q, m) of fbq.multi, its rate table, rates[2k] =
 * k mu1 and rates[2k + 1] = (m - k) mu2, and work for A(z) (pool_matrix). */
struct pool {
    int64_t m;
    double lam, mu1, mu2, q;
    const double *rates;
    double *band;
};

/* Outcomes of fbq_pool_data: the zero search's, then the shared data's. */
enum {
    SETUP_DONE,
    SETUP_END_COUNTS,      /* the Sturm counts at 0 and below 1 are not m and 1 */
    SETUP_SPLIT_COUNTS,    /* a split point's count lies outside its ends' counts */
    SETUP_NO_SIGN_CHANGE,  /* the determinant keeps its sign on a bracket, or is NaN */
    SETUP_DISCRIMINANT,    /* the kernel root's discriminant is not positive */
    SETUP_NO_CONVERGENCE,  /* Brent's method took all its steps */
    SETUP_STACK_FULL,      /* the bisection went deeper than ROOTS_STACK */
    SETUP_NULL_RESIDUAL,   /* a null vector's relative residual is above its bound, or NaN */
    SETUP_DRIFT            /* u^T A1 v vanishes */
};

/* Halving an interval of [0, 1] until no float lies inside takes at most
 * about 1080 splits, and the bisection stack holds at most one interval
 * more than the depth of the split it is at. */
enum { ROOTS_STACK = 2048 };

/* 1 - y1(z) of multi._y1_float, or 0 with *failed set when its
 * discriminant is not positive. */
static double one_minus_y1(const struct pool *p, double z, int *failed)
{
    /* CPython squares by libm's pow, which may differ from x * x in the last
     * bit; a volatile exponent keeps the compiler from folding the call */
    static volatile double two = 2.0;
    double rho = p->lam / ((double)p->m * p->mu1);
    double disc = pow(1.0 - rho, two) - 4.0 * rho * p->q * (z - 1.0);
    if (disc <= 0) {
        *failed = 1;
        return 0.0;
    }
    return 1.0 - (1.0 + rho - sqrt(disc)) / (2.0 * rho);
}

/* A(z) of multi._det_at, with its rounding, into p->band: the subdiagonal
 * lo[k] = -lam z, the diagonal and the superdiagonal up[k] = -alpha_(k+1) z
 * w at band, band + m and band + 2 m; up[k] lo[k] is the recurrences'
 * alpha_(k+1) z w lam z, bit for bit.  *failed is set where the kernel
 * root's discriminant is not positive. */
static void pool_matrix(const struct pool *p, double z, int *failed)
{
    const double *r = p->rates;
    int64_t m = p->m;
    double *lo = p->band, *d = lo + m, *up = d + m;
    double lz = p->lam * z, w = 1.0 - p->q + p->q * z, zm1 = z - 1.0;
    for (int64_t k = 0; k + 1 < m; k++) {
        lo[k] = -lz;
        d[k] = lz + r[2 * k] * z + r[2 * k + 1] * zm1;
        up[k] = -(r[2 * (k + 1)] * z * w);
    }
    d[m - 1] = lz * one_minus_y1(p, z, failed) + r[2 * (m - 1)] * z + p->mu2 * zm1;
}

/* The sign changes of reference.sturm_sequence at z, exact zeros skipped; its
 * last term D is replaced by *last when last is not NULL. */
static int64_t sturm_count(const struct pool *p, double z, const double *last, int *failed)
{
    int64_t m = p->m;
    const double *lo = p->band, *d = lo + m, *up = d + m;
    pool_matrix(p, z, failed);
    if (*failed)
        return 0;
    double prev = 1.0, cur = d[0];
    int64_t changes = 0;
    int neg = 0;   /* Q_0 = 1 is positive */
    for (int64_t k = 1;; k++) {
        double x = k == m && last ? *last : cur;
        if (x != 0.0) {
            changes += (x < 0.0) != neg;
            neg = x < 0.0;
        }
        if (k == m)
            return changes;
        double next = d[k] * cur - up[k - 1] * lo[k - 1] * prev;
        prev = cur;
        cur = next;
    }
}

/* The determinant of multi._det_at at z. */
static double det_at(const struct pool *p, double z, int *failed)
{
    int64_t m = p->m;
    const double *lo = p->band, *d = lo + m, *up = d + m;
    pool_matrix(p, z, failed);
    double nxt = 1.0, cur = d[m - 1];
    for (int64_t t = m - 2; t >= 0; t--) {
        double next = d[t] * cur - up[t] * lo[t] * nxt;
        nxt = cur;
        cur = next;
    }
    return cur;
}

#define MIN(a, b) ((a) < (b) ? (a) : (b))

/* scipy.optimize.brentq on det_at over [xa, xb], as scipy's brentq.c runs
 * it, with its wrapper's stop at the first NaN value.  Returns SETUP_DONE
 * with the zero in *root, or the status that stopped it; *evals counts the
 * evaluations. */
static int brent(const struct pool *p, double xa, double xb, double xtol, double rtol,
                 int maxiter, double *root, int64_t *evals, double *where)
{
    double xpre = xa, xcur = xb, xblk = 0.0, fblk = 0.0, spre = 0.0, scur = 0.0;
    int failed = 0;
    double fpre = det_at(p, xpre, &failed);
    if (failed) {
        *where = xpre;
        return SETUP_DISCRIMINANT;
    }
    if (isnan(fpre))
        return SETUP_NO_SIGN_CHANGE;
    double fcur = det_at(p, xcur, &failed);
    if (failed) {
        *where = xcur;
        return SETUP_DISCRIMINANT;
    }
    if (isnan(fcur))
        return SETUP_NO_SIGN_CHANGE;
    *evals += 2;
    if (fpre == 0) {
        *root = xpre;
        return SETUP_DONE;
    }
    if (fcur == 0) {
        *root = xcur;
        return SETUP_DONE;
    }
    if (signbit(fpre) == signbit(fcur))
        return SETUP_NO_SIGN_CHANGE;
    for (int i = 0; i < maxiter; i++) {
        if (fpre != 0 && fcur != 0 && signbit(fpre) != signbit(fcur)) {
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
        double delta = (xtol + rtol * fabs(xcur)) / 2;
        double sbis = (xblk - xcur) / 2;
        if (fcur == 0 || fabs(sbis) < delta) {
            *root = xcur;
            return SETUP_DONE;
        }
        if (fabs(spre) > delta && fabs(fcur) < fabs(fpre)) {
            double stry;
            if (xpre == xblk) {
                stry = -fcur * (xcur - xpre) / (fcur - fpre);   /* interpolate */
            } else {                                            /* extrapolate */
                double dpre = (fpre - fcur) / (xpre - xcur);
                double dblk = (fblk - fcur) / (xblk - xcur);
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre));
            }
            if (2 * fabs(stry) < MIN(fabs(spre), 3 * fabs(sbis) - delta)) {
                spre = scur;   /* good short step */
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
        fcur = det_at(p, xcur, &failed);
        if (failed) {
            *where = xcur;
            return SETUP_DISCRIMINANT;
        }
        if (isnan(fcur))
            return SETUP_NO_SIGN_CHANGE;
        ++*evals;
    }
    return SETUP_NO_CONVERGENCE;
}

/* The zero search of reference.isolate_roots on the pool p: the Sturm
 * counts at 0 and, with D replaced by -dprime = -D'(1), just below 1; the
 * bisection of (0, 1) on a stack, in the Python loop's push and pop order,
 * until each interval holds one zero and ends below 1, each such bracket's
 * ends going to brackets[2k], brackets[2k + 1]; then Brent's method with
 * tolerances xtol and rtol and at most maxiter steps on each bracket in
 * turn, its zero going to roots[k].  The count drops from m - k to m - k -
 * 1 across bracket k.  info[0] and info[1] get the number of sign counts
 * and of determinant evaluations, and a failure what its message needs:
 * the two end counts in info[2 .. 3] (SETUP_END_COUNTS); the counts at lo,
 * mid and hi in info[2 .. 4] and those points in where[0 .. 2]
 * (SETUP_SPLIT_COUNTS); the index of the bracket in info[2]
 * (SETUP_NO_SIGN_CHANGE); the point in where[0] (SETUP_DISCRIMINANT).
 * Returns SETUP_DONE or the failure's status. */
static int search_zeros(const struct pool *p, double dprime, double xtol, double rtol, int maxiter,
                        double *brackets, double *roots, int64_t *info, double *where)
{
    int64_t m = p->m;
    struct span {
        double lo, hi;
        int64_t vlo, vhi;
    } stack[ROOTS_STACK];
    int failed = 0;
    double below_one = -dprime;
    info[0] = info[1] = 0;
    int64_t v0 = sturm_count(p, 0.0, NULL, &failed);
    if (failed) {
        where[0] = 0.0;
        return SETUP_DISCRIMINANT;
    }
    int64_t v1 = sturm_count(p, 1.0, &below_one, &failed);
    if (failed) {
        where[0] = 1.0;
        return SETUP_DISCRIMINANT;
    }
    info[0] = 2;
    if (v0 != m || v1 != 1) {
        info[2] = v0;
        info[3] = v1;
        return SETUP_END_COUNTS;
    }

    int64_t found = 0;
    int top = 0;
    stack[0] = (struct span){0.0, 1.0, m, 1};
    while (top >= 0) {
        struct span s = stack[top--];
        if (s.vlo == s.vhi)
            continue;
        if (s.vlo - s.vhi == 1 && s.hi < 1.0) {
            brackets[2 * found] = s.lo;
            brackets[2 * found++ + 1] = s.hi;
            continue;
        }
        double mid = 0.5 * (s.lo + s.hi);
        int64_t v = sturm_count(p, mid, NULL, &failed);
        if (failed) {
            where[0] = mid;
            return SETUP_DISCRIMINANT;
        }
        info[0]++;
        if (!(s.vhi <= v && v <= s.vlo && s.lo < mid && mid < s.hi)) {
            info[2] = s.vlo;
            info[3] = v;
            info[4] = s.vhi;
            where[0] = s.lo;
            where[1] = mid;
            where[2] = s.hi;
            return SETUP_SPLIT_COUNTS;
        }
        if (top + 2 >= ROOTS_STACK)
            return SETUP_STACK_FULL;
        stack[++top] = (struct span){mid, s.hi, v, s.vhi};
        stack[++top] = (struct span){s.lo, mid, s.vlo, v};
    }
    for (int64_t k = 0; k < found; k++) {
        int status = brent(p, brackets[2 * k], brackets[2 * k + 1], xtol, rtol, maxiter,
                           roots + k, info + 1, where);
        if (status == SETUP_NO_SIGN_CHANGE)
            info[2] = k;
        if (status != SETUP_DONE)
            return status;
    }
    return SETUP_DONE;
}

/* The truncated chain of fbq.ctmc on the rectangle 0 <= i <= n1, 0 <= j <=
 * n2, state (i, j) at flat index i (n2 + 1) + j, with the foreground and
 * background completion rates fg and bg in that order. */
struct chain {
    int64_t n1, n2;
    double lam, q;
    const double *fg, *bg;
};

/* The moves out of state s that fbq.ctmc._transitions keeps, in its order:
 * arrival, foreground leaving, foreground joining the background (as (i -
 * 1, n2) on the edge j = n2), background completion, each only where it is
 * allowed and its rate is > 0.  Their targets go to to[], their rates to
 * rate[]; returns their count. */
static int chain_moves(const struct chain *c, int64_t s, int64_t *to, double *rate)
{
    int64_t w = c->n2 + 1, i = s / w, j = s % w;
    const int allowed[4] = {i < c->n1, i > 0, i > 0, j > 0};
    const int64_t target[4] = {s + w, s - w, s - w + (j < c->n2), s - 1};
    const double r[4] = {c->lam, c->fg[s] * (1.0 - c->q), c->fg[s] * c->q, c->bg[s]};
    int k = 0;
    for (int m = 0; m < 4; m++) {
        if (allowed[m] && r[m] > 0.0) {
            to[k] = target[m];
            rate[k++] = r[m];
        }
    }
    return k;
}

/* LAPACK's dgbsv, as scipy.linalg.cython_lapack exports it. */
typedef void dgbsv_fn(int *n, int *kl, int *ku, int *nrhs, double *ab, int *ldab, int *ipiv,
                      double *b, int *ldb, int *info);

/* Outcomes of fbq_ctmc_rectangle. */
enum { RECT_SOLVED, RECT_SINGULAR, RECT_EMPTY, RECT_NO_MEMORY };

/* One rectangle of fbq.ctmc._stationary's band path in one call, as
 * reference.rectangle does it in numpy: the chain (n1, n2, lam, q, fg,
 * bg), state (i, j) at flat index i (n2 + 1) + j, with the state `fixed`
 * set to 1.  A breadth-first search from `fixed` finds the states it
 * reaches, keeping each state's moves (chain_moves); the others among
 * them, the unknowns, are numbered along the short axis first: in order of
 * their flat index, or of j (n1 + 1) + i when n2 > n1.  band gets kl and
 * ku, the farthest entries below and above the diagonal, and their balance
 * equations are filled into dgbsv's column-major band, n columns of 2 kl +
 * ku + 1 rows with entry (r, c) in row kl + ku + r - c of column c, with
 * the right-hand side: each unknown's inflow from the other unknowns minus
 * its own outflow equals minus its inflow from `fixed`.  Each cell is
 * summed from 0 in move order, the order of reference.band_system's
 * bincounts, so the system is the reference's bit for bit, and dgbsv
 * solves it.  grid gets the solution, unnormalised: 1 at `fixed`, 0 at the
 * states that `fixed` does not reach.
 * Returns RECT_SOLVED; RECT_EMPTY, with nothing written, when `fixed`
 * reaches no other state; RECT_SINGULAR, with grid unwritten, when dgbsv
 * finds a zero pivot; RECT_NO_MEMORY when the work space cannot be
 * allocated. */
int fbq_ctmc_rectangle(dgbsv_fn *dgbsv, int64_t n1, int64_t n2, double lam, double q,
                       const double *fg, const double *bg, int64_t fixed, double *grid,
                       int64_t *band)
{
    const struct chain c = {n1, n2, lam, q, fg, bg};
    int64_t states = (n1 + 1) * (n2 + 1), w = n2 + 1;
    int64_t *pos = malloc(states * (6 * sizeof(int64_t) + 4 * sizeof(double) + sizeof(int)));
    if (!pos)
        return RECT_NO_MEMORY;
    int64_t *order = pos + states, *to = order + states;
    double *rate = (double *)(to + 4 * states);
    int *moves = (int *)(rate + 4 * states);
    /* order is the search's queue until the unknowns are numbered; pos
     * marks a reached state -2 */
    for (int64_t s = 0; s < states; s++)
        pos[s] = -1;
    int64_t head = 0, tail = 1, n = 0, kl = 0, ku = 0;
    order[0] = fixed;
    pos[fixed] = -2;
    while (head < tail) {
        int64_t s = order[head++];
        moves[s] = chain_moves(&c, s, to + 4 * s, rate + 4 * s);
        for (int m = 0; m < moves[s]; m++) {
            if (pos[to[4 * s + m]] == -1) {
                pos[to[4 * s + m]] = -2;
                order[tail++] = to[4 * s + m];
            }
        }
    }
    pos[fixed] = -1;
    for (int64_t k = 0; k < states; k++) {
        int64_t s = n2 > n1 ? k % (n1 + 1) * w + k / (n1 + 1) : k;
        if (pos[s] == -2) {
            pos[s] = n;
            order[n++] = s;
        }
    }
    if (!n) {
        free(pos);
        return RECT_EMPTY;
    }
    for (int64_t k = 0; k < n; k++) {
        int64_t s = order[k];
        for (int m = 0; m < moves[s]; m++) {
            int64_t r = pos[to[4 * s + m]];
            if (r >= 0) {
                kl = r - k > kl ? r - k : kl;
                ku = k - r > ku ? k - r : ku;
            }
        }
    }
    int64_t diag = kl + ku, height = diag + kl + 1;
    double *ab = malloc((n * height + n) * sizeof *ab), *b = ab + n * height;
    int *ipiv = malloc(n * sizeof *ipiv);
    if (!ab || !ipiv) {
        free(ab);
        free(ipiv);
        free(pos);
        return RECT_NO_MEMORY;
    }
    for (int64_t k = 0; k < n; k++) {
        int64_t s = order[k];
        double out = 0.0, *col = ab + k * height;
        /* rows 0 .. kl - 1 are dgbsv's room for fill, which it zeroes
         * before it uses them */
        for (int64_t r = kl; r < height; r++)
            col[r] = 0.0;
        for (int m = 0; m < moves[s]; m++) {
            out += rate[4 * s + m];
            if (pos[to[4 * s + m]] >= 0)
                col[diag + pos[to[4 * s + m]] - k] += rate[4 * s + m];
        }
        col[diag] += -out;
        b[k] = 0.0;
    }
    for (int m = 0; m < moves[fixed]; m++)
        if (pos[to[4 * fixed + m]] >= 0)
            b[pos[to[4 * fixed + m]]] += rate[4 * fixed + m];
    for (int64_t k = 0; k < n; k++)
        b[k] = -b[k];
    int nn = (int)n, ikl = (int)kl, iku = (int)ku, nrhs = 1, ld = (int)height, info = 0;
    dgbsv(&nn, &ikl, &iku, &nrhs, ab, &ld, ipiv, b, &nn, &info);
    band[0] = kl;
    band[1] = ku;
    int status = info > 0 ? RECT_SINGULAR : RECT_SOLVED;
    if (status == RECT_SOLVED) {
        for (int64_t s = 0; s < states; s++)
            grid[s] = 0.0;
        for (int64_t k = 0; k < n; k++)
            grid[order[k]] = b[k];
        grid[fixed] = 1.0;
    }
    free(ab);
    free(ipiv);
    free(pos);
    return status;
}

/* The unknowns of threshold K of the pool of m servers are the states (i, j)
 * with K <= i + j <= m - 1 in row-major order; row i holds j = max(0, K -
 * i) .. m - 1 - i.  The number of unknowns before row i, and the unknown of
 * (i, j); kept_before(m, K, m) is their count n. */
static int64_t kept_before(int64_t m, int64_t K, int64_t i)
{
    if (i <= K)
        return i * (m - K);
    return K * (m - K) + (i - K) * m - (i * (i - 1) - K * (K - 1)) / 2;
}

static int64_t unknown(int64_t m, int64_t K, int64_t i, int64_t j)
{
    return kept_before(m, K, i) + j - (K > i ? K - i : 0);
}

/* The boundary system of threshold K of the pool p, as reference.pool_fill
 * fills it, into the envelope e of n = kept_before(m, K, m) unknowns and rhs:
 * the balance rows of the states i + j <= m - 2, the state (i, j) at row
 * unknown(i, j) - i, as a running state or, when K >= 1 and i + j = K, a
 * stopped one; one row per zero z_k (k = 0 .. m - 2), with the left null
 * vector null[k m ..] and the powers zpow[k m + j] = z_k^j; and the
 * idle-or-stopped servers row, whose right-hand side is idle.  A balance
 * row's envelope runs from its first to its last neighbour, (i - 1, j) or
 * the state itself to (i + 1, j), and only it is zeroed; the m - 1 zero
 * rows and the idle row span every column, each cell of them written. */
static void pool_fill(const struct pool *p, int64_t K, const double *zeros, const double *null,
                      const double *zpow, double idle, struct envelope *e, double *rhs)
{
    const double *r = p->rates;
    int64_t m = p->m, n = e->n;
    double lam = p->lam, mu1 = p->mu1, mu2 = p->mu2, q = p->q;
    for (int64_t c = 0; c < n; c++)
        rhs[c] = 0.0;
    for (int64_t i = 0; i + 1 < m; i++) {
        for (int64_t j = K > i ? K - i : 0; i + j <= m - 2; j++) {
            int64_t own = unknown(m, K, i, j), stopped = K && i + j == K;
            int64_t lo = stopped || i == 0 ? own : unknown(m, K, i - 1, j), hi = unknown(m, K, i + 1, j);
            double *row = e->t + (own - i) * n;
            e->first[own - i] = (int)lo;
            e->last[own - i] = (int)hi;
            for (int64_t c = lo; c <= hi; c++)
                row[c] = 0.0;
            if (stopped) {
                row[own] = lam;
                row[hi] = -((double)(i + 1) * (1.0 - q) * mu1);
            } else {
                row[own] = lam + r[2 * i] + (double)j * mu2;
                if (i > 0)
                    row[lo] = -lam;
                row[hi] = -(r[2 * (i + 1)] * (1.0 - q));
                if (j > 0)
                    row[unknown(m, K, i + 1, j - 1)] = -(r[2 * (i + 1)] * q);
            }
            row[own + 1] = -((double)(j + 1) * mu2);
        }
    }
    for (int64_t k = 0; k + 1 < m; k++) {
        const double *u = null + k * m, *zp = zpow + k * m;
        double z = zeros[k], zm1 = z - 1.0, w = 1.0 - q + q * z;
        double *row = e->t + (n - m + k) * n;
        e->first[n - m + k] = 0;
        e->last[n - m + k] = (int)n - 1;
        for (int64_t i = 0, c = 0; i < m; i++) {
            for (int64_t j = K > i ? K - i : 0; i + j < m; j++, c++) {
                if (K && i + j == K) {
                    double own = u[i] * ((r[2 * i] * z + r[2 * i + 1] * zm1) * zp[j]);
                    row[c] = i > 0 ? u[i - 1] * ((double)(-i) * mu1 * w * zp[j + 1]) + own : own;
                } else {
                    row[c] = u[i] * (mu2 * zm1 * (double)(m - i - j) * zp[j]);
                }
            }
        }
    }
    e->first[n - 1] = 0;
    e->last[n - 1] = (int)n - 1;
    for (int64_t i = 0, c = 0; i < m; i++)
        for (int64_t j = K > i ? K - i : 0; i + j < m; j++, c++)
            e->t[(n - 1) * n + c] = (double)(i + j == K ? m : m - i - j);
    rhs[n - 1] = idle;
}

/* Adds the terms (c0 + c1 t) z^pw x of a state's entry of b_t at z = 1 + t,
 * expanded to order 2, to b[t], b[m + t] and b[2 m + t]. */
static void add_taylor(double *b, int64_t m, int64_t t, double c0, double c1, double pw, double x)
{
    b[t] += c0 * x;
    b[m + t] += (c0 * pw + c1) * x;
    b[2 * m + t] += (c0 * pw * (pw - 1) / 2 + c1 * pw) * x;
}

/* The Taylor vectors b0, b1, b2 (b, 3 x m) of threshold K of the pool p
 * from the solved boundary probabilities x, summed from 0 in the order of
 * the unknowns: a running state's term of b_i, a stopped state's term of
 * b_(i-1) (i >= 1) and then of b_i.  With clamp set, x is read as
 * linsys._checked clamps it, a value below 0 or -0.0 as 0.0. */
static void pool_taylor(const struct pool *p, int64_t K, const double *x, int clamp, double *b)
{
    const double *r = p->rates;
    int64_t m = p->m;
    for (int64_t c = 0; c < 3 * m; c++)
        b[c] = 0.0;
    for (int64_t i = 0, c = 0; i < m; i++) {
        for (int64_t j = K > i ? K - i : 0; i + j < m; j++, c++) {
            double v = x[c];
            if (clamp && !(v > 0.0) && v == v)
                v = 0.0;
            if (K && i + j == K) {
                double c0 = (double)(-i) * p->mu1;
                if (i > 0)
                    add_taylor(b, m, i - 1, c0, c0 * p->q, (double)(K - i + 1), v);
                add_taylor(b, m, i, r[2 * i], r[2 * i] + r[2 * i + 1], (double)(K - i), v);
            } else {
                add_taylor(b, m, i, 0.0, p->mu2 * (double)(m - i - j), (double)j, v);
            }
        }
    }
}

static double dot(int64_t m, const double *u, const double *x)
{
    double sum = 0.0;
    for (int64_t i = 0; i < m; i++)
        sum += u[i] * x[i];
    return sum;
}

/* Row r of a x, for the m x m tridiagonal a of m - 1 subdiagonal, m
 * diagonal and m - 1 superdiagonal entries: the row's three products summed
 * from 0, which for finite entries is the sum of the whole row. */
static double tri_row(int64_t m, const double *a, int64_t r, const double *x)
{
    double sum = r > 0 ? 0.0 + a[r - 1] * x[r - 1] : 0.0;
    sum += a[m - 1 + r] * x[r];
    return r + 1 < m ? sum + a[2 * m - 1 + r] * x[r + 1] : sum;
}

/* u^T (a x) for the m x m tridiagonal a of tri_row, each row summed first. */
static double u_a_x(int64_t m, const double *u, const double *a, const double *x)
{
    double sum = 0.0;
    for (int64_t r = 0; r < m; r++)
        sum += u[r] * tri_row(m, a, r, x);
    return sum;
}

/* g0 and g1 (g, 2 x m), the values and derivatives at z = 1 of the
 * pool's generating functions, by the cascade of (A0 + A1 t + A2 t^2)(g0 +
 * g1 t + ...) = b0 + b1 t + ..., from b (3 x m) and `one`, the z = 1 part
 * of fbq_pool_data's data: A0, A1 and A2 as tridiagonals of 3 m - 2
 * entries each (tri_row), the left and right null vectors u and v of A0
 * and u^T A1 v.  Each order's particular solution p is the one that the
 * bordered system [[A0, u], [v^T, 0]] of order m + 1 gives with the border
 * rows' right-hand side 0, which is A0's minimum-norm least-squares
 * solution: lu_system factors it with [b0, 0] on its envelopes, row r < m
 * from column max(r - 1, 0) to m and row m whole, and lu_solve takes [b1 -
 * A1 g0, 0] scaled by the kept row scales.  Then g0 =
 * p0 + c0 v with c0 = (u^T b1 - u^T A1 p0) / u^T A1 v, and g1 = p1 + c1 v
 * with c1 = (u^T b2 - u^T A2 g0 - u^T A1 p1) / u^T A1 v.  check gets u^T
 * b0 and max |b0| + max |b1|, the solvability test's residual and scale.
 * e is an envelope of m + 1 unknowns and y work of m + 1 entries.  Returns
 * lu_system's first-pass status, and solves nothing more if it is not 0. */
static int pool_cascade(int64_t m, const double *one, const double *b, struct envelope *e, double *y,
                        double *g, double *check)
{
    const double *a0 = one, *a1 = a0 + 3 * m - 2, *a2 = a1 + 3 * m - 2, *u = a2 + 3 * m - 2;
    const double *v = u + m, *b0 = b, *b1 = b + m, *b2 = b + 2 * m;
    double uA1v = v[m], big0 = 0.0, big1 = 0.0, least, *t = e->t;
    int64_t k = m + 1;
    for (int64_t i = 0; i < m; i++) {
        big0 = fabs(b0[i]) > big0 ? fabs(b0[i]) : big0;
        big1 = fabs(b1[i]) > big1 ? fabs(b1[i]) : big1;
    }
    check[0] = dot(m, u, b0);
    check[1] = big0 + big1;
    for (int64_t r = 0; r < m; r++) {
        e->first[r] = r > 0 ? (int)r - 1 : 0;
        e->last[r] = (int)m;
        for (int64_t c = e->first[r]; c < m; c++)   /* A0's entry (r, c) */
            t[r * k + c] = c == r - 1 ? a0[c] : c == r ? a0[m - 1 + r]
                         : c == r + 1 ? a0[2 * m - 1 + r] : 0.0;
        t[r * k + m] = u[r];
        t[m * k + r] = v[r];
        y[r] = b0[r];
    }
    t[m * k + m] = 0.0;
    e->first[m] = 0;
    e->last[m] = (int)m;
    y[m] = 0.0;
    int status = lu_system(e, y, &least);
    if (status)
        return status;
    double *g0 = g, *g1 = g + m;
    double c0 = (dot(m, u, b1) - u_a_x(m, u, a1, y)) / uA1v;
    for (int64_t i = 0; i < m; i++)
        g0[i] = y[i] + c0 * v[i];
    for (int64_t r = 0; r < m; r++)
        y[r] = (b1[r] - tri_row(m, a1, r, g0)) / e->scale[r];
    y[m] = 0.0;
    lu_solve(e, y);
    double c1 = (dot(m, u, b2) - u_a_x(m, u, a2, g0) - u_a_x(m, u, a1, y)) / uA1v;
    for (int64_t i = 0; i < m; i++)
        g1[i] = y[i] + c1 * v[i];
    return 0;
}

/* An outcome row of fbq_pool_system: the status (0, the first-pass status
 * 1 or 2 of the boundary system or else of the cascade's bordered system,
 * 3 for no memory, POOL_INCONSISTENT for a failed solvability test), the
 * note_system summary (singular, below, negatives) and least |pivot|, the
 * condition estimate of a singular or negative system, the solvability
 * residual and scale, L1, L2, L, U, the tail mass and g_m(1), then g0 (m),
 * g1 (m) and p (m).  Every entry is a double; what a row does not reach
 * stays 0. */
enum { ROW_STATUS, ROW_SINGULAR, ROW_BELOW, ROW_NEGATIVES, ROW_PIVMIN, ROW_COND, ROW_RESIDUAL,
       ROW_SCALE, ROW_L1, ROW_L2, ROW_L, ROW_U, ROW_TAIL, ROW_GM, ROW_G };

enum { POOL_INCONSISTENT = 4 };

/* The finish of threshold K of the pool p (multi.MultiServerSolution's
 * fields, as reference.finish sums them) from x, read clamped with clamp
 * set, and g0, g1 at row + ROW_G, into row: each operation in the order
 * that Python evaluates it.  r = lam / (m mu1) and g_m(1) = r g0[m - 1];
 * L1 is L1_at_0, the M/M/m value multi.mmm_marginal gives, at K = 0, else
 * the sum of i g0[i] added in turn to 0.0 (sum() in CPython 3.11) plus g_m(1)
 * (m (1 - r) + r) / (1 - r)^2; L2 is the sum of g1 plus (g1[m - 1] (y2 - 1)
 * - g0[m - 1] dy2) / (y2 - 1)^2, with y2 and dy2 the large kernel root
 * and its derivative at 1; each square is libm's pow, as CPython's ** 2.
 * p[t] adds the clamped x of the diagonal i + j = t in the order of the
 * unknowns to 0.0, U = m (1 - p[K]) and the tail mass is 1 minus the sum
 * of p. */
static void pool_finish(const struct pool *p, int64_t K, const double *x, int clamp, double L1_at_0,
                        double y2, double dy2, double *row)
{
    static volatile double two = 2.0;   /* as in one_minus_y1 */
    int64_t m = p->m;
    const double *g0 = row + ROW_G, *g1 = g0 + m;
    double *pk = row + ROW_G + 2 * m;
    double r = p->lam / ((double)m * p->mu1), gm = r * g0[m - 1], L1 = L1_at_0, L2 = 0.0, total = 0.0;
    if (K) {
        L1 = 0.0;
        for (int64_t i = 0; i < m; i++)
            L1 += (double)i * g0[i];
        L1 += gm * ((double)m * (1.0 - r) + r) / pow(1.0 - r, two);
    }
    for (int64_t i = 0; i < m; i++)
        L2 += g1[i];
    L2 += (g1[m - 1] * (y2 - 1.0) - g0[m - 1] * dy2) / pow(y2 - 1.0, two);
    for (int64_t t = 0; t < m; t++)
        pk[t] = 0.0;
    for (int64_t i = 0, c = 0; i < m; i++) {
        for (int64_t j = K > i ? K - i : 0; i + j < m; j++, c++) {
            double v = x[c];
            if (clamp && !(v > 0.0) && v == v)
                v = 0.0;
            pk[i + j] += v;
        }
    }
    for (int64_t t = 0; t < m; t++)
        total += pk[t];
    row[ROW_L1] = L1;
    row[ROW_L2] = L2;
    row[ROW_L] = L1 + L2;
    row[ROW_U] = (double)m * (1.0 - pk[K]);
    row[ROW_TAIL] = 1.0 - total;
    row[ROW_GM] = gm;
}

/* The thresholds[0 .. count - 1] of the pool (m, lam, mu1, mu2, q) with the
 * work of fbq_pool_data, its rate table `rates` and the zeros after it,
 * solved whole in that order, one outcome row each (ROW_G + 3 m entries at
 * rows + k (ROW_G + 3 m)) and the solution x of each after those of the
 * thresholds before it, until a row fails, as reference.solve_rows does.
 * For each K, pool_fill fills the boundary system on its envelope, with
 * the pool's zeros, the null vectors and powers at the head of its
 * fbq_pool_data `data` and idle = m - rho1 - rho2; lu_system solves it into
 * x, or returns 1 or 2 from its first pass as linsys._first_pass would;
 * note_system books the least |pivot| and the summary as reference.lockstep
 * would, on every row.  If a pivot is below pivot_tol or a value below
 * -neg_tol, the row gets the lu_condition estimate from the same factors
 * and nothing more is done.  Else pool_taylor sums b from x, read clamped
 * if a value is negative, and pool_cascade takes b and the z = 1 part of
 * `data` to g0 and g1, with the solvability residual and scale, on the
 * same work; a residual above 1e-7 max(scale, 1e-300), as Python's max
 * takes it, makes the status POOL_INCONSISTENT, and else pool_finish ends
 * the row.  A row fails when its status is not 0 or its system is singular
 * or negative, and no later threshold is solved.  Returns the number of
 * rows written: the first gets status 3 if the work cannot be allocated. */
int fbq_pool_system(int64_t m, double lam, double mu1, double mu2, double q, const double *rates,
                    double L1_at_0, double y2, double dy2, double pivot_tol, double neg_tol,
                    const double *data, double idle, int64_t count, const int64_t *thresholds, double *x,
                    double *rows)
{
    const struct pool p = {m, lam, mu1, mu2, q, rates, NULL};
    const double *zeros = rates + 2 * m;
    int64_t width = ROW_G + 3 * m, big = m + 1, done = 0;
    for (int64_t k = 0; k < count; k++) {
        int64_t n = kept_before(m, thresholds[k], m);
        big = n > big ? n : big;
    }
    for (int64_t c = 0; c < count * width; c++)
        rows[c] = 0.0;
    double *t = malloc(sizeof(double) * (big * big + 2 * big + 3 * m) + env_bytes(big, 1));
    if (!t) {
        rows[ROW_STATUS] = 3.0;
        rows[ROW_SINGULAR] = rows[ROW_BELOW] = -1.0;
        return 1;
    }
    double *work = t + big * big, *b = work + 2 * big, *xk = x;
    for (int failed = 0; done < count && !failed; done++) {
        int64_t K = thresholds[done], n = kept_before(m, K, m), summary[3] = {-1, -1, 0};
        double *row = rows + done * width, least = 0.0;
        struct envelope e;
        env_init(&e, (int)n, 1, t, b + 3 * m);
        pool_fill(&p, K, zeros, data, data + (m - 1) * m, idle, &e, xk);
        int status = lu_system(&e, xk, &least);
        if (!status) {
            note_system(0, (int)n, least, xk, pivot_tol, neg_tol, row + ROW_PIVMIN, summary);
            if (summary[0] >= 0 || summary[1] >= 0) {
                row[ROW_COND] = lu_condition(&e, work, work + n);
            } else {
                pool_taylor(&p, K, xk, summary[2] > 0, b);
                env_init(&e, (int)(m + 1), 1, t, b + 3 * m);
                status = pool_cascade(m, data + 2 * (m - 1) * m, b, &e, work, row + ROW_G,
                                      row + ROW_RESIDUAL);
                double scale = row[ROW_SCALE];
                if (!status && fabs(row[ROW_RESIDUAL]) > 1e-7 * (1e-300 > scale ? 1e-300 : scale))
                    status = POOL_INCONSISTENT;
                else if (!status)
                    pool_finish(&p, K, xk, summary[2] > 0, L1_at_0, y2, dy2, row);
            }
        }
        row[ROW_STATUS] = status;
        row[ROW_SINGULAR] = (double)summary[0];
        row[ROW_BELOW] = (double)summary[1];
        row[ROW_NEGATIVES] = (double)summary[2];
        failed = status || summary[0] >= 0 || summary[1] >= 0;
        xk += n;
    }
    free(t);
    return (int)done;
}

/* The null vector x of the n x n tridiagonal matrix T with subdiagonal lo
 * (lo[i] = T[i + 1][i]), diagonal d and superdiagonal up (up[i] = T[i][i +
 * 1]) by its twisted factorisation (Fernando, SIAM J. Matrix Anal. Appl. 18,
 * 1997; Parlett & Dhillon, Linear Algebra Appl. 267, 1997): the pivots
 * dp[i] = d[i] - lo[i - 1] up[i - 1] / dp[i - 1] from the top and dm[i] =
 * d[i] - lo[i] up[i] / dm[i + 1] from the bottom, an exact zero replaced by
 * the least normal double; the twist r is the first index of the least
 * |gamma_k|, gamma_k = dp[k] + dm[k] - d[k]; x_r = 1, x_i = -up[i] x_(i+1)
 * / dp[i] above r and x_i = -lo[i - 1] x_(i-1) / dm[i] below it, so that T
 * x = gamma_r e_r; then x is divided by its 2-norm.  Returns |gamma_r| /
 * (||x||_2 ||T||_F), the relative residual of the unit vector, or 0 for a
 * zero T; dp and dm are work of n entries. */
static double twisted_null(int64_t n, const double *lo, const double *d, const double *up,
                           double *dp, double *dm, double *x)
{
    dp[0] = d[0] == 0.0 ? DBL_MIN : d[0];
    for (int64_t i = 1; i < n; i++) {
        dp[i] = d[i] - lo[i - 1] * up[i - 1] / dp[i - 1];
        dp[i] = dp[i] == 0.0 ? DBL_MIN : dp[i];
    }
    dm[n - 1] = d[n - 1] == 0.0 ? DBL_MIN : d[n - 1];
    for (int64_t i = n - 2; i >= 0; i--) {
        dm[i] = d[i] - lo[i] * up[i] / dm[i + 1];
        dm[i] = dm[i] == 0.0 ? DBL_MIN : dm[i];
    }
    int64_t r = 0;
    double gamma = dp[0] + dm[0] - d[0];
    for (int64_t k = 1; k < n; k++) {
        double gk = dp[k] + dm[k] - d[k];
        if (fabs(gk) < fabs(gamma)) {
            r = k;
            gamma = gk;
        }
    }
    x[r] = 1.0;
    for (int64_t i = r - 1; i >= 0; i--)
        x[i] = -up[i] * x[i + 1] / dp[i];
    for (int64_t i = r + 1; i < n; i++)
        x[i] = -lo[i - 1] * x[i - 1] / dm[i];
    double norm = 0.0, frob = 0.0;
    for (int64_t i = 0; i < n; i++)
        norm += x[i] * x[i];
    norm = sqrt(norm);
    for (int64_t i = 0; i < n; i++)
        x[i] /= norm;
    for (int64_t i = 0; i < n; i++)
        frob += d[i] * d[i];
    for (int64_t i = 0; i + 1 < n; i++)
        frob += lo[i] * lo[i] + up[i] * up[i];
    frob = sqrt(frob);
    return frob == 0.0 ? 0.0 : fabs(gamma) / (norm * frob);
}

/* What every threshold of the pool (m, lam, mu1, mu2, q) shares, in one
 * call on the pool's work, which holds the rate table (2 m) that
 * multi._Pool writes, then zeros (m), band (5 m), brackets (2 m), where (3),
 * info (5 int64) and data: its m - 1 zeros in (0, 1), by search_zeros with
 * D'(1) = dprime, brentq's tolerances xtol = DBL_MIN and rtol = 4 DBL_EPSILON
 * (numpy's tiny and 4 eps) and maxiter, into zeros, with the search's
 * totals and a failure's data in info and where;
 * then, built from them as reference.pool_data builds it, into data: the
 * left null vector of each A(z_k)^T by twisted_null at data[k m ..]; the
 * powers z_k^j (j < m) by libm's pow, as CPython takes them, at data[(m - 1
 * + k) m + j]; A(z)'s Taylor coefficients A0, A1, A2 at z = 1 + t as
 * tridiagonals (tri_row), from the terms c1 t + c2 t^2 of y1(1 + t); A0's
 * null pair u, v; and u^T A1 v, by rows.  Returns the search's failure,
 * else SETUP_NULL_RESIDUAL at the first null vector, in that order, whose
 * relative residual is above null_rtol or NaN, with that residual in
 * where[0], SETUP_DRIFT if |u^T A1 v| is below 1e-12 of A1's largest
 * |entry|, else SETUP_DONE. */
int fbq_pool_data(int64_t m, double lam, double mu1, double mu2, double q, double dprime, int maxiter,
                  double c1, double c2, double null_rtol, double *work)
{
    double *rates = work, *zeros = work + 2 * m, *band = work + 3 * m, *brackets = work + 8 * m;
    double *where = work + 10 * m, *data = work + 10 * m + 8;
    int64_t *info = (int64_t *)(work + 10 * m + 3);
    const struct pool p = {m, lam, mu1, mu2, q, rates, band};
    int status = search_zeros(&p, dprime, DBL_MIN, 4 * DBL_EPSILON, maxiter, brackets, zeros, info, where);
    if (status != SETUP_DONE)
        return status;
    double *zpow = data + (m - 1) * m, *a0 = zpow + (m - 1) * m, *a1 = a0 + 3 * m - 2;
    double *a2 = a1 + 3 * m - 2, *u = a2 + 3 * m - 2, *v = u + m, *ratio = where;
    double uA1v = 0.0, big = 0.0;
    int failed = 0;
    *ratio = 0.0;
    for (int64_t k = 0; k + 1 < m && *ratio <= null_rtol; k++) {
        pool_matrix(&p, zeros[k], &failed);
        double *lo = band, *d = lo + m, *up = d + m;
        *ratio = twisted_null(m, up, d, lo, up + m, up + 2 * m, data + k * m);
        for (int64_t j = 0; j < m; j++)
            zpow[k * m + j] = pow(zeros[k], (double)j);
    }
    for (int64_t i = 0; i < m; i++) {
        if (i + 1 < m) {
            a0[i] = a1[i] = -lam;
            a2[i] = -lam * 0.0;
            a0[2 * m - 1 + i] = -rates[2 * (i + 1)];
            a1[2 * m - 1 + i] = -(rates[2 * (i + 1)] * (1.0 + q));
            a2[2 * m - 1 + i] = -(rates[2 * (i + 1)] * q);
        }
        a0[m - 1 + i] = lam + rates[2 * i];
        a1[m - 1 + i] = lam + rates[2 * i] + rates[2 * i + 1];
        a2[m - 1 + i] = 0.0;
    }
    a0[2 * m - 2] = rates[2 * (m - 1)];
    a1[2 * m - 2] = rates[2 * (m - 1)] + mu2 - lam * c1;
    a2[2 * m - 2] = -lam * (c1 + c2);
    if (*ratio <= null_rtol)   /* A0's left null vector is the right one of its transpose */
        *ratio = twisted_null(m, a0 + 2 * m - 1, a0 + m - 1, a0, band, band + m, u);
    if (*ratio <= null_rtol)
        *ratio = twisted_null(m, a0, a0 + m - 1, a0 + 2 * m - 1, band, band + m, v);
    if (!(*ratio <= null_rtol))
        return SETUP_NULL_RESIDUAL;
    for (int64_t r = 0; r < m; r++) {
        double below = r > 0 ? a1[r - 1] * v[r - 1] : 0.0;
        double above = r + 1 < m ? a1[2 * m - 1 + r] * v[r + 1] : 0.0;
        uA1v += u[r] * (below + a1[m - 1 + r] * v[r] + above);
    }
    for (int64_t c = 0; c < 3 * m - 2; c++)   /* NaN if an entry is, as numpy's max */
        big = fabs(a1[c]) > big || a1[c] != a1[c] ? fabs(a1[c]) : big;
    v[m] = uA1v;
    return fabs(uA1v) < 1e-12 * big ? SETUP_DRIFT : SETUP_DONE;
}

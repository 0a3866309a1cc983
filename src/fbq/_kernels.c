/* The package's compiled loops, called through ctypes.
 *
 * fbq_jump_chain is the jump-chain loop of fbq.simulate._run.  Its uniforms
 * are CPython's random.Random.random(): MT19937 (Matsumoto & Nishimura, ACM
 * TOMACS 8, 1998) continued from a state that random.Random(seed).getstate()
 * returns, and genrand_res53 on two tempered words.  Every float operation
 * is the Python loop's, in its order, so the two agree bit for bit when this
 * file is built with -ffp-contract=off and without -ffast-math.
 *
 * fbq_lu_stack is the check, scale, factor and solve loop of
 * fbq.linsys.solve_probability_stack.  It calls the LAPACK getrf and getrs
 * that scipy.linalg.lapack wraps, through the pointers that
 * scipy.linalg.cython_lapack exports, so no LAPACK is linked here and each
 * system gets the Python loop's answer bit for bit.
 */
#include <math.h>
#include <stdint.h>

enum { MT_N = 624, MT_M = 397 };

static uint32_t mt_word(uint32_t *mt, int64_t *pos)
{
    if (*pos >= MT_N) {
        for (int k = 0; k < MT_N; k++) {
            uint32_t y = (mt[k] & 0x80000000u) | (mt[(k + 1) % MT_N] & 0x7fffffffu);
            mt[k] = mt[(k + MT_M) % MT_N] ^ (y >> 1) ^ ((y & 1u) ? 0x9908b0dfu : 0u);
        }
        *pos = 0;
    }
    uint32_t y = mt[(*pos)++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= y >> 18;
    return y;
}

static double mt_random(uint32_t *mt, int64_t *pos)
{
    uint32_t a = mt_word(mt, pos) >> 5, b = mt_word(mt, pos) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Row r of the rate table: holding time inv[r], servers/rate srv[r], arrival
 * probability pa[r] and the arrival's next row up[r].  Its completions are
 * moves first[r], first[r] + 1, ...: move k is taken when u < bound[k] (the
 * row's last bound is infinite) and is (phase, moves on, next row below the
 * clamp, next row at or above it) in move[4k .. 4k + 3].  Arrivals close a
 * batch at each of stops[0 .. nstops - 1]; sums gets the batch's time and the
 * time integrals of n0, nl and the servers, counts the final n0, nl, arrivals
 * and completions. */
void fbq_jump_chain(uint32_t *mt, int64_t pos, const double *inv, const double *srv,
                    const double *pa, const int64_t *up, const int64_t *first,
                    const double *bound, const int64_t *move, int64_t clamp,
                    const int64_t *stops, int64_t nstops, double *sums, int64_t *counts)
{
    int64_t n0 = 0, n1 = 0, nl = 0, arrivals = 0, completions = 0, row = 0;
    for (int64_t s = 0; s < nstops; s++) {
        double t = 0.0, ti = 0.0, tj = 0.0, tu = 0.0;
        while (arrivals < stops[s]) {
            double h = inv[row];
            t += h;
            ti += (double)n0 * h;
            tj += (double)nl * h;
            tu += srv[row];
            double u = mt_random(mt, &pos);
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

typedef void getrf_fn(int *m, int *n, double *a, int *lda, int *ipiv, int *info);
typedef void getrs_fn(char *trans, int *n, int *nrhs, double *a, int *lda, int *ipiv,
                      double *b, int *ldb, int *info);

/* The row-scaled solves of fbq.linsys.solve_probability_stack, as its Python
 * loop _solve_each does them.  A first pass over the whole stack returns 1
 * if an entry of a or b is not finite, else 2 if a row of a is all zeros,
 * before any solve.  Then each row of a[k] and its entry of b[k] are divided
 * in place by the row's largest |a_ij|, and the system is copied into
 * column-major order in lu, LU-factored with partial pivoting by getrf and
 * solved by getrs into x[k].  pivmin[k] gets the smallest |pivot| of system
 * k (NaN if one is NaN, as numpy's min gives).  summary gets the first
 * system with a pivot below pivot_tol, the first with a solved value below
 * -neg_tol (each -1 if none) and the count of negative solved values.  lu
 * (n * n) and ipiv (n) are scratch.  Returns 0 after the solves. */
int fbq_lu_stack(getrf_fn *getrf, getrs_fn *getrs, int64_t count, int n, double pivot_tol,
                 double neg_tol, double *a, double *b, double *lu, int *ipiv, double *x,
                 double *pivmin, int64_t *summary)
{
    int zero_row = 0;
    for (int64_t r = 0; r < count * n; r++) {
        int nonzero = 0;
        for (int c = 0; c < n; c++) {
            if (!isfinite(a[r * n + c]))
                return 1;
            nonzero |= a[r * n + c] != 0.0;
        }
        if (!isfinite(b[r]))
            return 1;
        zero_row |= !nonzero;
    }
    if (zero_row)
        return 2;

    int nrhs = 1, info;
    char trans = 'N';
    summary[0] = summary[1] = -1;
    summary[2] = 0;
    for (int64_t k = 0; k < count; k++) {
        double *ak = a + k * n * n, *bk = b + k * n, *xk = x + k * n;
        for (int r = 0; r < n; r++) {
            double scale = 0.0;
            for (int c = 0; c < n; c++)
                if (fabs(ak[r * n + c]) > scale)
                    scale = fabs(ak[r * n + c]);
            for (int c = 0; c < n; c++)
                ak[r * n + c] /= scale;
            bk[r] /= scale;
        }
        for (int c = 0; c < n; c++) {
            for (int r = 0; r < n; r++)
                lu[c * n + r] = ak[r * n + c];
            xk[c] = bk[c];
        }
        getrf(&n, &n, lu, &n, ipiv, &info);
        double least = fabs(lu[0]);
        for (int r = 1; r < n; r++) {
            double p = fabs(lu[r * n + r]);
            if (p < least || p != p)
                least = p;
        }
        pivmin[k] = least;
        if (summary[0] < 0 && least < pivot_tol)
            summary[0] = k;
        getrs(&trans, &n, &nrhs, lu, &n, ipiv, xk, &n, &info);
        for (int r = 0; r < n; r++) {
            if (xk[r] < 0.0) {
                summary[2]++;
                if (summary[1] < 0 && xk[r] < -neg_tol)
                    summary[1] = k;
            }
        }
    }
    return 0;
}

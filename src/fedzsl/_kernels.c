/*
 * fedzsl's compiled kernels, built on first use by fedzsl._kernels and
 * called through ctypes:
 *   - the graphical lasso's column step (fedzsl.glasso): the work before
 *     and after the column lasso (fedzsl_column_start, fedzsl_column_finish)
 *     and its coordinate passes (fedzsl_lasso_passes);
 *   - the momentum SGD step of one tensor (fedzsl.model.sgd_step):
 *     fedzsl_sgd_step;
 *   - the elementwise passes and reductions of the loss terms
 *     (fedzsl.losses): fedzsl_softmax_shift, fedzsl_row_sums,
 *     fedzsl_column_sums, fedzsl_sce_rows, fedzsl_sce_grad, fedzsl_kl_rows, fedzsl_kl_grad,
 *     fedzsl_ad and fedzsl_bc, and the finiteness scan of a loss's
 *     gradients, fedzsl_all_finite.  numpy's exp and log, and
 *     every matrix product, stay with numpy between these calls.
 *
 * Each function is the numpy or Python code it replaces, operation for
 * operation: the same products, sums, comparisons and divisions on the same
 * values in the same order, so it writes the same bits.  It must be built
 * with -ffp-contract=off (never -ffast-math), or the compiler may fuse
 * r[k] + col[k] * step into one rounding.
 *
 * The loops are plain, one element per iteration, and -O3 vectorizes them.
 * That keeps every bit: each vector lane performs the scalar code's
 * operations on its own element and rounds as they do, and no flag licenses
 * reassociation (-fassociative-math, which -ffast-math implies), so a
 * floating-point sum carried from one iteration to the next stays in order:
 * it is left scalar, or it adds the lanes of each vector loaded one at a
 * time (an in-order reduction).  The pairwise sum's eight accumulators are
 * numpy's; a vector holds them one per lane.
 *
 * The column step's matrices are C-contiguous: p x p for w, s and theta,
 * n x n with n = p - 1 for q and qt.  Index a of an n-vector is row or
 * column a + (a >= j) of the p x p matrices.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Rows and columns at a time of the tiled transpose of q into qt. */
#define TILE 32

/* row[k] = row[k] - (c_i*c[k])/c_j and q_row[k] = scale*row[k], k < m. */
static void downdate(double *restrict row, double *restrict q_row, const double *restrict c,
                     double c_i, double c_j, double scale, long long m)
{
    for (long long k = 0; k < m; k++) {
        row[k] = row[k] - (c_i * c[k]) / c_j;
        q_row[k] = scale * row[k];
    }
}

/* row[k] = row[k] + (r_a*r[k])/scale, k < m. */
static void update(double *restrict row, const double *restrict r, double r_a, double scale,
                   long long m)
{
    for (long long k = 0; k < m; k++)
        row[k] = row[k] + (r_a * r[k]) / scale;
}

/*
 * Before column j's lasso: c = w[:, j]; off row and column j,
 * w = w - (c[i]*c[k])/c[j]; q = scale*w there and qt = q.T; lin = s[rest, j]
 * and b = theta[rest, j].  Row and column j of w are left as they were: the
 * numpy step's downdate of them is overwritten by fedzsl_column_finish
 * before anything reads it.
 */
void fedzsl_column_start(long long p, long long j, double scale, double *restrict w,
                         const double *restrict s, const double *restrict theta,
                         double *restrict c, double *restrict q, double *restrict qt,
                         double *restrict lin, double *restrict b)
{
    long long n = p - 1;
    for (long long i = 0; i < p; i++)
        c[i] = w[i * p + j];
    double c_j = c[j];
    for (long long i = 0; i < p; i++) {
        if (i == j)
            continue;
        double *row = w + i * p;
        double *q_row = q + (i - (i > j)) * n;
        downdate(row, q_row, c, c[i], c_j, scale, j);
        downdate(row + j + 1, q_row + j, c + j + 1, c[i], c_j, scale, p - j - 1);
    }
    for (long long a0 = 0; a0 < n; a0 += TILE) {
        long long a1 = a0 + TILE < n ? a0 + TILE : n;
        for (long long k0 = 0; k0 < n; k0 += TILE) {
            long long k1 = k0 + TILE < n ? k0 + TILE : n;
            for (long long k = k0; k < k1; k++)
                for (long long a = a0; a < a1; a++)
                    qt[k * n + a] = q[a * n + k];
        }
    }
    for (long long a = 0; a < n; a++) {
        long long i = a + (a >= j);
        lin[a] = s[i * p + j];
        b[a] = theta[i * p + j];
    }
}

/*
 * After column j's lasso, given its solution b and r = q @ b: theta[rest, j]
 * = theta[j, rest] = b; off row and column j, w = w + (r[i]*r[k])/scale;
 * w[rest, j] = w[j, rest] = -r and w[j, j] = scale.  theta[j, j] needs b @ r,
 * a BLAS reduction, so the caller writes it.
 */
void fedzsl_column_finish(long long p, long long j, double scale, double *restrict w,
                          double *restrict theta, const double *restrict b,
                          const double *restrict r)
{
    long long n = p - 1;
    for (long long a = 0; a < n; a++) {
        long long i = a + (a >= j);
        double *row = w + i * p;
        double r_a = r[a];
        update(row, r, r_a, scale, j);
        update(row + j + 1, r + j, r_a, scale, p - j - 1);
        row[j] = -r_a;
        w[j * p + i] = -r_a;
        theta[i * p + j] = b[a];
        theta[j * p + i] = b[a];
    }
    w[j * p + j] = scale;
}

/*
 * The coordinate passes of the column lasso, the Python loop of
 * glasso._NumpyColumnStep.solve.
 *
 * n          the number of coordinates
 * qt         n x n, row i is the column q[:, i] (its diagonal is q's)
 * lin        the linear term, n values
 * b          the warm start, updated in place
 * r          q @ b on entry, kept equal to it as b moves
 * delta      the L1 penalty
 * inner_tol  a pass whose largest move is at most this ends the solve
 * max_passes the pass cap
 * biggest    receives the largest coordinate move of the last pass run
 *
 * Returns the number of passes run.
 */
long long fedzsl_lasso_passes(long long n, const double *qt, const double *lin,
                              double *b, double *restrict r, double delta,
                              double inner_tol, long long max_passes, double *biggest)
{
    long long pass = 0;
    double largest = 0.0;
    while (pass < max_passes) {
        pass++;
        largest = 0.0;
        for (long long i = 0; i < n; i++) {
            const double *restrict col = qt + i * n;
            double q_ii = col[i];
            double old = b[i];
            double x = -((lin[i] + r[i]) - q_ii * old);
            double new;
            if (x > delta)
                new = (x - delta) / q_ii;
            else if (x < -delta)
                new = (x + delta) / q_ii;
            else
                new = 0.0 / q_ii;
            if (new != old) {
                double step = new - old;
                double size = step < 0.0 ? -step : step;
                b[i] = new;
                for (long long k = 0; k < n; k++)
                    r[k] = r[k] + col[k] * step;
                if (size > largest)
                    largest = size;
            }
        }
        if (largest <= inner_tol)
            break;
    }
    *biggest = largest;
    return pass;
}

/*
 * One momentum SGD step on an n-element tensor t with gradient g and
 * momentum buffer buf, the numpy body of fedzsl.model.sgd_step element by
 * element:
 *
 *     w = t*wd; w = g + w; b = buf*m; b = b + w; buf = b; t = t - b*lr
 *
 * Each element reads only its own index, and t is read again after buf is
 * stored, so a gradient or buffer that is the tensor itself (the same
 * pointer) gets numpy's per-element result; the pointers are therefore not
 * restrict, and the compiler checks them at run time before it takes its
 * vector loop.  Arrays that overlap at an offset are the caller's to refuse.
 * Which NaN a sum of two different NaNs keeps is left to the compiler, as
 * IEEE 754 leaves it open; numpy keeps its first operand's.
 */
void fedzsl_sgd_step(long long n, double *t, const double *g, double *buf, double wd,
                     double m, double lr)
{
    for (long long k = 0; k < n; k++) {
        double w = t[k] * wd;
        w = g[k] + w;
        double b = buf[k] * m;
        b = b + w;
        buf[k] = b;
        t[k] = t[k] - b * lr;
    }
}

/*
 * The loss kernels.  Every reduction is numpy's: np.add.reduce of n float64
 * values is the identity 0.0 plus their pairwise sum (pairwise_sum in
 * numpy's loops_utils.h.src), which adds fewer than 8 values one by one,
 * up to 128 values in 8 interleaved accumulators, and splits a longer run
 * at n/2 rounded down to a multiple of 8.  A reduction over axis 0 adds the
 * rows one after another onto 0.0.  fedzsl._kernels checks this order
 * against np.add.reduce when it loads the library.
 *
 * Matrices are C-contiguous with `cols` values per row; `labels` are int64
 * row indices into `targets` and `log_targets`, or column indices into a
 * row of scores, all in range (the callers check them).
 */

/*
 * numpy's pairwise sum of LEAF(x, i) for i < n, defined once for the
 * values (pairwise) and for their squares (pairwise_squares).
 */
#define PAIRWISE(name, LEAF)                                                          \
    static double name(const double *x, long long n)                                  \
    {                                                                                 \
        if (n < 8) {                                                                  \
            double res = 0.0;                                                         \
            for (long long i = 0; i < n; i++)                                         \
                res += LEAF(x, i);                                                    \
            return res;                                                               \
        }                                                                             \
        if (n <= 128) {                                                               \
            double r0 = LEAF(x, 0), r1 = LEAF(x, 1), r2 = LEAF(x, 2), r3 = LEAF(x, 3);  \
            double r4 = LEAF(x, 4), r5 = LEAF(x, 5), r6 = LEAF(x, 6), r7 = LEAF(x, 7);  \
            long long i = 8;                                                          \
            for (; i < n - (n % 8); i += 8) {                                         \
                r0 += LEAF(x, i);                                                     \
                r1 += LEAF(x, i + 1);                                                 \
                r2 += LEAF(x, i + 2);                                                 \
                r3 += LEAF(x, i + 3);                                                 \
                r4 += LEAF(x, i + 4);                                                 \
                r5 += LEAF(x, i + 5);                                                 \
                r6 += LEAF(x, i + 6);                                                 \
                r7 += LEAF(x, i + 7);                                                 \
            }                                                                         \
            double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));           \
            for (; i < n; i++)                                                        \
                res += LEAF(x, i);                                                    \
            return res;                                                               \
        }                                                                             \
        long long n2 = n / 2;                                                         \
        n2 -= n2 % 8;                                                                 \
        return name(x, n2) + name(x + n2, n - n2);                                    \
    }

#define VALUE(x, i) ((x)[i])
#define SQUARE(x, i) ((x)[i] * (x)[i])
PAIRWISE(pairwise, VALUE)
PAIRWISE(pairwise_squares, SQUARE)

/* np.add.reduce(x[:n]). */
static double reduce(const double *x, long long n)
{
    return 0.0 + pairwise(x, n);
}

/* np.add.reduce(x[:n] * x[:n]). */
static double reduce_squares(const double *x, long long n)
{
    return 0.0 + pairwise_squares(x, n);
}

/*
 * The first step of a row-wise log-softmax: y = x / tau (x itself when tau
 * is 1, as x / 1 is x), then out = y - max(y) row by row.  out may be x.  A
 * NaN in a row makes its maximum NaN, as numpy's does.
 */
void fedzsl_softmax_shift(long long rows, long long cols, const double *x, double *out,
                          double tau)
{
    for (long long r = 0; r < rows; r++) {
        const double *xr = x + r * cols;
        double *o = out + r * cols;
        if (tau != 1.0) {
            for (long long k = 0; k < cols; k++)
                o[k] = xr[k] / tau;
            xr = o;
        }
        double m = xr[0];
        for (long long k = 1; k < cols; k++)
            if (xr[k] > m || xr[k] != xr[k])
                m = m != m ? m : xr[k];
        for (long long k = 0; k < cols; k++)
            o[k] = xr[k] - m;
    }
}

/* sums[r] = np.add.reduce(x[r]) for each row r. */
void fedzsl_row_sums(long long rows, long long cols, const double *x, double *sums)
{
    for (long long r = 0; r < rows; r++)
        sums[r] = reduce(x + r * cols, cols);
}

/* x[r] -= log_sums[r] for each row r: the last step of the log-softmax. */
static void subtract_rows(long long rows, long long cols, double *x, const double *log_sums)
{
    for (long long r = 0; r < rows; r++) {
        double *xr = x + r * cols;
        double s = log_sums[r];
        for (long long k = 0; k < cols; k++)
            xr[k] = xr[k] - s;
    }
}

/* sums[c] = np.add.reduce(x[:, c]) for each column c: rows added in order onto 0.0. */
void fedzsl_column_sums(long long rows, long long cols, const double *restrict x,
                        double *restrict sums)
{
    for (long long c = 0; c < cols; c++)
        sums[c] = 0.0;
    for (long long r = 0; r < rows; r++) {
        const double *xr = x + r * cols;
        for (long long c = 0; c < cols; c++)
            sums[c] = sums[c] + xr[c];
    }
}

/*
 * The semantic cross-entropy of rows [first, first + rows) of a batch of
 * `batch` rows, after the log of the exponential sums: lp (the block's
 * rows) becomes the log-probabilities and picked[first + r] their entry at
 * labels[r].  Returns np.add.reduce(picked) once the block is the batch's
 * last, else 0.0.
 */
double fedzsl_sce_rows(long long rows, long long cols, double *lp, const double *log_sums,
                       const long long *labels, double *picked, long long first,
                       long long batch)
{
    subtract_rows(rows, cols, lp, log_sums);
    for (long long r = 0; r < rows; r++)
        picked[first + r] = lp[r * cols + labels[r]];
    return first + rows == batch ? reduce(picked, batch) : 0.0;
}

/*
 * The logit gradient of the cross-entropy from the block's probabilities p:
 * p[r, labels[r]] -= 1, then p /= batch.
 */
void fedzsl_sce_grad(long long rows, long long cols, double *p, const long long *labels,
                     long long batch)
{
    double b = (double)batch;
    for (long long r = 0; r < rows; r++)
        p[r * cols + labels[r]] -= 1.0;
    for (long long k = 0; k < rows * cols; k++)
        p[k] = p[k] / b;
}

/*
 * The KL term of rows [first, first + rows) of a batch of `batch` rows,
 * after the log of the exponential sums: lp (the block's rows) becomes the
 * log-probabilities; with t the target row and lt its logarithm at
 * labels[r], each entry contributes (lt - lp) * t, or 0 where t is 0, and
 * row_sums[first + r] = np.add.reduce of the contributions, gathered in
 * work (cols values).  Returns np.add.reduce(row_sums) once the block is
 * the batch's last, else 0.0.
 */
double fedzsl_kl_rows(long long rows, long long cols, double *lp, const double *log_sums,
                      const double *targets, const double *log_targets,
                      const long long *labels, double *restrict work, double *row_sums,
                      long long first, long long batch)
{
    subtract_rows(rows, cols, lp, log_sums);
    for (long long r = 0; r < rows; r++) {
        const double *restrict p = lp + r * cols;
        const double *restrict t = targets + labels[r] * cols;
        const double *restrict lt = log_targets + labels[r] * cols;
        /* Stored, then zeroed: a ternary's product would move into its
         * branch, which keeps the loop from being vectorized. */
        for (long long k = 0; k < cols; k++) {
            work[k] = (lt[k] - p[k]) * t[k];
            if (t[k] == 0.0)
                work[k] = 0.0;
        }
        row_sums[first + r] = reduce(work, cols);
    }
    return first + rows == batch ? reduce(row_sums, batch) : 0.0;
}

/* The KL logit gradient from the block's probabilities p: ((p - t) * tau) / batch. */
void fedzsl_kl_grad(long long rows, long long cols, double *p, const double *targets,
                    const long long *labels, double tau, long long batch)
{
    double b = (double)batch;
    for (long long r = 0; r < rows; r++) {
        double *restrict pr = p + r * cols;
        const double *restrict t = targets + labels[r] * cols;
        for (long long k = 0; k < cols; k++)
            pr[k] = ((pr[k] - t[k]) * tau) / b;
    }
}

/*
 * The decorrelation term over all `rows` rows of a (d_a columns): for group
 * g with columns [bounds[2g], bounds[2g + 1]), norms[g * rows + r] is the
 * square root of np.add.reduce of the squares of a[r] over the group.
 * Returns the sum over groups, in order from 0.0, of np.add.reduce of each
 * group's norms.  When grad is not NULL, grad[r] over the group is
 * (a[r] / norm) / rows, or 0 where the norm is below eps (or NaN).
 */
double fedzsl_ad(long long rows, long long d_a, const double *restrict a, long long groups,
                 const long long *bounds, double *restrict norms, double *restrict grad,
                 double eps)
{
    for (long long g = 0; g < groups; g++) {
        long long first = bounds[2 * g], width = bounds[2 * g + 1] - first;
        for (long long r = 0; r < rows; r++)
            norms[g * rows + r] = sqrt(reduce_squares(a + r * d_a + first, width));
    }
    double total = 0.0;
    for (long long g = 0; g < groups; g++)
        total += reduce(norms + g * rows, rows);
    if (grad == 0)
        return total;
    double b = (double)rows;
    for (long long g = 0; g < groups; g++) {
        long long first = bounds[2 * g], width = bounds[2 * g + 1] - first;
        for (long long r = 0; r < rows; r++) {
            const double *x = a + r * d_a + first;
            double *y = grad + r * d_a + first;
            double norm = norms[g * rows + r];
            if (norm >= eps)
                for (long long k = 0; k < width; k++)
                    y[k] = (x[k] / norm) / b;
            else
                for (long long k = 0; k < width; k++)
                    y[k] = 0.0 / b;
        }
    }
    return total;
}

/*
 * The reconstruction term: residual -= v over rows x cols entries, v
 * float32 (widened exactly) when v_f32 is set, else float64; returns
 * np.add.reduce(residual * residual) over every entry.  When d_b is not
 * NULL, residual then becomes (residual * 2) / rows and d_b its sum over
 * axis 0.
 */
double fedzsl_bc(long long rows, long long cols, double *restrict residual, const void *v,
                 int v_f32, double *restrict d_b)
{
    long long n = rows * cols;
    const float *restrict vf = v;
    const double *restrict vd = v;
    if (v_f32)
        for (long long k = 0; k < n; k++)
            residual[k] = residual[k] - (double)vf[k];
    else
        for (long long k = 0; k < n; k++)
            residual[k] = residual[k] - vd[k];
    double total = reduce_squares(residual, n);
    if (d_b == 0)
        return total;
    double b = (double)rows;
    for (long long k = 0; k < n; k++)
        residual[k] = (residual[k] * 2.0) / b;
    fedzsl_column_sums(rows, cols, residual, d_b);
    return total;
}

/*
 * 1 when each of the n values is finite, else 0.  A value is not finite
 * exactly when its exponent bits are all ones, and then adding 2^52 to its
 * magnitude bits carries into the top bit; integer ORs, unlike
 * floating-point sums, may be taken in any order.
 */
int fedzsl_all_finite(long long n, const double *x)
{
    const uint64_t magnitude = 0x7fffffffffffffffULL, exponent_one = 0x0010000000000000ULL;
    uint64_t acc = 0, bits;
    for (long long k = 0; k < n; k++) {
        memcpy(&bits, x + k, 8);
        acc |= (bits & magnitude) + exponent_one;
    }
    return (acc >> 63) == 0;
}

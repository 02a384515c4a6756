/*
 * fedzsl's compiled kernels, built on first use by fedzsl._kernels and
 * called through ctypes:
 *   - the graphical lasso's column step (fedzsl.glasso): the work before
 *     and after the column lasso (fedzsl_column_start, fedzsl_column_finish)
 *     and its coordinate passes (fedzsl_lasso_passes);
 *   - the momentum SGD step of one tensor (fedzsl.model.sgd_step):
 *     fedzsl_sgd_step.
 *
 * Each function is the numpy or Python code it replaces, operation for
 * operation: the same products, sums, comparisons and divisions on the same
 * values in the same order, so it writes the same bits.  It must be built
 * with -ffp-contract=off (never -ffast-math), or the compiler may fuse
 * r[k] + col[k] * step into one rounding.
 *
 * The column step's matrices are C-contiguous: p x p for w, s and theta,
 * n x n with n = p - 1 for q and qt.  Index a of an n-vector is row or
 * column a + (a >= j) of the p x p matrices.
 */

/* Rows and columns at a time of the tiled transpose of q into qt. */
#define TILE 32

/*
 * The two loops below take two entries per iteration, computed into locals
 * before either is stored, so that GCC vectorizes them at -O2 (its cheap
 * cost model there takes no loop that would need a remainder loop): both
 * divisions become one SSE2 divpd.  Each lane rounds as the scalar code
 * does, so the bits are the same; it roughly halves the time of the column
 * step's divisions.
 */

/* row[k] = row[k] - (c_i*c[k])/c_j and q_row[k] = scale*row[k], k < m. */
static void downdate(double *restrict row, double *restrict q_row, const double *restrict c,
                     double c_i, double c_j, double scale, long long m)
{
    long long k = 0;
    for (; k + 1 < m; k += 2) {
        double w0 = row[k] - (c_i * c[k]) / c_j;
        double w1 = row[k + 1] - (c_i * c[k + 1]) / c_j;
        row[k] = w0;
        row[k + 1] = w1;
        q_row[k] = scale * w0;
        q_row[k + 1] = scale * w1;
    }
    for (; k < m; k++) {
        row[k] = row[k] - (c_i * c[k]) / c_j;
        q_row[k] = scale * row[k];
    }
}

/* row[k] = row[k] + (r_a*r[k])/scale, k < m. */
static void update(double *restrict row, const double *restrict r, double r_a, double scale,
                   long long m)
{
    long long k = 0;
    for (; k + 1 < m; k += 2) {
        double w0 = row[k] + (r_a * r[k]) / scale;
        double w1 = row[k + 1] + (r_a * r[k + 1]) / scale;
        row[k] = w0;
        row[k + 1] = w1;
    }
    for (; k < m; k++)
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
 * restrict.  Arrays that overlap at an offset are the caller's to refuse.
 * Two elements per iteration, as in downdate, lets GCC vectorize at -O2.
 * Which NaN a sum of two different NaNs keeps is left to the compiler, as
 * IEEE 754 leaves it open; numpy keeps its first operand's.
 */
void fedzsl_sgd_step(long long n, double *t, const double *g, double *buf, double wd,
                     double m, double lr)
{
    long long k = 0;
    for (; k + 1 < n; k += 2) {
        double w0 = t[k] * wd;
        double w1 = t[k + 1] * wd;
        w0 = g[k] + w0;
        w1 = g[k + 1] + w1;
        double b0 = buf[k] * m;
        double b1 = buf[k + 1] * m;
        b0 = b0 + w0;
        b1 = b1 + w1;
        buf[k] = b0;
        buf[k + 1] = b1;
        t[k] = t[k] - b0 * lr;
        t[k + 1] = t[k + 1] - b1 * lr;
    }
    for (; k < n; k++) {
        double w = t[k] * wd;
        w = g[k] + w;
        double b = buf[k] * m;
        b = b + w;
        buf[k] = b;
        t[k] = t[k] - b * lr;
    }
}

/*
 * The coordinate passes of the graphical lasso's column solve, compiled on
 * first use by fedzsl.glasso and called through ctypes.
 *
 * This is the Python loop of glasso._solve_column_lasso, operation for
 * operation: the same products, sums, comparisons and divisions on the
 * same values in the same order, so it writes the same bits.  It must be
 * built with -ffp-contract=off (never -ffast-math), or the compiler may
 * fuse r[k] + col[k] * step into one rounding.
 *
 * n          the number of coordinates
 * qt         n x n, row i is the column q[:, i] (its diagonal is q's)
 * lin        the linear term, n values
 * b          the warm start, updated in place
 * r          q @ b on entry, kept equal to it as b moves
 * delta      the L1 penalty
 * inner_tol  a pass whose largest move is at most this ends the solve
 * max_passes the pass cap
 *
 * Returns the largest coordinate move of the last pass run.
 */

double fedzsl_lasso_passes(long long n, const double *qt, const double *lin,
                           double *b, double *restrict r, double delta,
                           double inner_tol, long long max_passes)
{
    double biggest = 0.0;
    for (long long pass = 0; pass < max_passes; pass++) {
        biggest = 0.0;
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
                if (size > biggest)
                    biggest = size;
            }
        }
        if (biggest <= inner_tol)
            break;
    }
    return biggest;
}

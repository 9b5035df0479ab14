/* Step loop of lorenz.integrate.  Its pure-Python fallback is this same
 * loop, step for step: the same IEEE double operations, in the same order,
 * through rk4_step.  Build without FMA contraction or fast-math, or the
 * trajectory stops being bit-identical to it.
 *
 * Fills out[3t-3..3t-1] with (x, y, z) of post-burn-in sample t = 1..count
 * and returns 0, or the 1-based step (burn-in steps included) whose state
 * went non-finite. */
#include <math.h>
#include <stdint.h>

#define LORENZ(x, y, z, dx, dy, dz) \
    (dx) = a * ((y) - (x)); (dy) = b * (x) - (y) - (x) * (z); (dz) = (x) * (y) - c * (z)

int64_t lft_rk4(double x, double y, double z, double a, double b, double c, double h,
                int64_t burn_in, int64_t count, int64_t interval, double *out)
{
    double k1x, k1y, k1z, k2x, k2y, k2z, k3x, k3y, k3z, k4x, k4y, k4z;
    for (int64_t i = 1; i <= burn_in + count; i++) {
        LORENZ(x, y, z, k1x, k1y, k1z);
        LORENZ(x + h / 2 * k1x, y + h / 2 * k1y, z + h / 2 * k1z, k2x, k2y, k2z);
        LORENZ(x + h / 2 * k2x, y + h / 2 * k2y, z + h / 2 * k2z, k3x, k3y, k3z);
        LORENZ(x + h * k3x, y + h * k3y, z + h * k3z, k4x, k4y, k4z);
        x = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x);
        y = y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y);
        z = z + h / 6 * (k1z + 2 * k2z + 2 * k3z + k4z);
        if (!(isfinite(x) && isfinite(y) && isfinite(z)))
            return i;
        int64_t t = i - burn_in;
        if (t < 1)
            continue;
        if (t % interval == 1) {
            if (z <= 0) { x += 0.1; y -= 0.2; }
            else { x += 0.2; y -= 0.1; }
        }
        out[3 * t - 3] = x;
        out[3 * t - 2] = y;
        out[3 * t - 1] = z;
    }
    return 0;
}

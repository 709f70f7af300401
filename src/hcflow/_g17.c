/* CSV text of float64 cells, every cell exactly Python's '%.17g' % v: the compiled lane's
 * formatter, which hcflow.core builds into the same library as _core_c.c.  Each cell takes
 * hcflow._g17's proof (see its docstring and _round17) one cell at a time: the decade guess
 * X = floor(log10 |v|), the Veltkamp-split double-double product |v| * 10**(16 - X) against
 * the table POW10, the half-even rounding with the TIE guard, the carry to 10**16; then the
 * 17 digits N are laid out as %g lays them out.  _g17_tables.h, which hcflow.core.build renders
 * from hcflow/_g17.py with hcflow._core_gen, holds MIN, MAX, K_MIN, SPLIT, TIE and POW10, so
 * each has one definition.  NaN, +-inf and zeros are written as Python writes them ("nan",
 * never glibc's "-nan"); the other cells the proof does not settle (|v| outside [MIN, MAX), a
 * decade guess one off, a product within TIE of a tie) go through snprintf("%.17g"), which
 * glibc rounds exactly and half-even, as Python does.  hcflow.core compiles it with _core_c.c,
 * with the same flags, into one library. */
#include <math.h>
#include <stdio.h>
#include <string.h>

#include <_g17_tables.h>

enum { WIDTH = 24 };  /* the longest cell, "-1.2345678901234567e-123" */
static const long long LOW = 10000000000000000LL, HIGH = 100000000000000000LL;  /* 1e16, 1e17 */

/* N in [1e16, 1e17) and X of %.17g's decimal of a = |v|, and 1, where the proof settles them;
 * else 0. */
static int round17(double a, long long *n, int *x) {
    if (!(a >= MIN && a < MAX)) return 0;
    *x = (int)floor(log10(a));
    const double *t = POW10[16 - *x - K_MIN];  /* hi, hi's halves, lo */
    double p = a * t[0], c = SPLIT * a, a_h = c - (c - a), a_l = a - a_h;
    double r = (((a_h * t[1] - p) + a_h * t[2] + a_l * t[1]) + a_l * t[2]) + a * t[3];
    double whole = floor(r), frac = r - whole;
    *n = (long long)p + (long long)whole;
    if (!(fabs(frac - 0.5) >= TIE) || *n < LOW) return 0;
    *n += frac > 0.5;
    if (*n > HIGH) return 0;
    if (*n == HIGH) *n = LOW, ++*x;
    return 1;
}

static char *put(char *o, const char *s, int n) {
    memcpy(o, s, n);
    return o + n;
}

/* The four digits of g < 10000 at d. */
static void four(char *d, unsigned g) {
    unsigned a = g / 100, b = g % 100;
    d[0] = (char)('0' + a / 10), d[1] = (char)('0' + a % 10);
    d[2] = (char)('0' + b / 10), d[3] = (char)('0' + b % 10);
}

/* Writes the cell v at o; returns the end of what it wrote. */
static char *cell(char *o, double v) {
    long long n;
    int x;
    if (!round17(fabs(v), &n, &x)) {
        if (v != v) return put(o, "nan", 3);
        if (v != 0.0 && !isinf(v)) return o + snprintf(o, WIDTH + 1, "%.17g", v);
        if (signbit(v)) *o++ = '-';
        return v == 0.0 ? put(o, "0", 1) : put(o, "inf", 3);
    }
    char d[17];  /* the lead digit and four groups of four, which do not wait on each other */
    long long top = n / 100000000;
    unsigned mid = (unsigned)(top % 100000000), low = (unsigned)(n % 100000000);
    d[0] = (char)('0' + top / 100000000);
    four(d + 1, mid / 10000), four(d + 5, mid % 10000);
    four(d + 9, low / 10000), four(d + 13, low % 10000);
    int s = 17;  /* significant digits: trailing zeros are stripped */
    while (d[s - 1] == '0') s--;
    if (signbit(v)) *o++ = '-';
    if (x < -4 || x > 16) {  /* d.ddde+XX */
        *o++ = d[0];
        if (s > 1) *o++ = '.', o = put(o, d + 1, s - 1);
        int e = x < 0 ? -x : x;
        *o++ = 'e', *o++ = x < 0 ? '-' : '+';
        if (e >= 100) *o++ = (char)('0' + e / 100);
        *o++ = (char)('0' + e / 10 % 10), *o++ = (char)('0' + e % 10);
    } else if (x < 0) {  /* 0.000ddd */
        o = put(o, "0.000", 1 - x);
        o = put(o, d, s);
    } else {  /* ddd.ddd */
        o = put(o, d, x + 1);
        if (s > x + 1) *o++ = '.', o = put(o, d + x + 1, s - x - 1);
    }
    return o;
}

/* Writes the n_cells cells, row-major in rows of n_cols, to out as CSV rows: cells joined by
 * commas, each row ended by a newline.  out holds at least n_cells * (WIDTH + 1) bytes.
 * Returns the number of bytes written. */
long hcf_csv(const double *cells, long n_cells, long n_cols, char *out) {
    char *o = out;
    for (long i = 0, col = 1; i < n_cells; i++, col = col == n_cols ? 1 : col + 1) {
        o = cell(o, cells[i]);
        *o++ = col == n_cols ? '\n' : ',';
    }
    return (long)(o - out);
}

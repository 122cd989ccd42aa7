/* One program-point step of the flat thermal core after heating, over a
   row-major grid of rows x cols points:

     leakage   scratch[p] = T + (leak * dt) / c_point, where
               excess = d if d > 0 or d is NaN, else +0.0 (d = T - amb)
               and leak = (lw * (1 + lc * excess)) * cells[p]
     stencil   acc = (((0.0 + (up - t)) + (left - t)) + (right - t))
                     + (down - t), over the neighbours that exist, read
               from scratch; d = t + lambda * acc
     cooling   cur[p] = d - kappa * (d - amb)

   then the store of cur into a state row and, when asked, the largest
   |cur[p] - row[p]| against that row's old contents. Every point
   computes exactly the operations of Transfer.apply, in its order and
   in IEEE double precision, so the states are bit-identical to the
   boxed core's. Leakage and the interior of every row run two points
   at a time: the vector lanes perform the same add, sub, mul and div
   per point. Rim points take a scalar path that tests which neighbours
   exist. The change is order-free: a maximum of non-negative values
   started at +0.0, where a -0.0 never wins and any NaN sets a flag.
   Bit-identity holds only without contraction into fused multiply-add:
   the file must be compiled with -ffp-contract=off and without
   -ffast-math or -march. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

typedef double v2d __attribute__((vector_size(16)));
typedef long long v2i __attribute__((vector_size(16)));

/* The coefficients, in the order Flat_core.prepare packs them. */
enum { AMBIENT, LEAK_W, LEAK_COEFF, DT, C_POINT, LAMBDA, KAPPA };

static inline v2d load2(const double *p)
{
  v2d v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline void store2(double *p, v2d v) { memcpy(p, &v, sizeof v); }

/* The running change: the largest |new - old| so far, per lane and for
   the scalar points, and whether any change was NaN. */
struct change {
  v2d vworst;
  v2i vnan;
  double worst;
  int nan;
};

/* The new state v of point p lands in cur and in the row; with [change]
   its distance from the row's old value joins the running change. */
static inline __attribute__((always_inline)) void
keep1(struct change *ch, double *cur, double *row, const int change, intnat p,
      double v)
{
  cur[p] = v;
  if (change) {
    const double ad = __builtin_fabs(v - row[p]);
    if (ad > ch->worst) ch->worst = ad;
    ch->nan |= ad != ad;
  }
  row[p] = v;
}

static inline __attribute__((always_inline)) void
keep2(struct change *ch, double *cur, double *row, const int change, intnat p,
      v2d v)
{
  const v2i absmask = { 0x7fffffffffffffffLL, 0x7fffffffffffffffLL };
  store2(cur + p, v);
  if (change) {
    const v2d ad = (v2d)((v2i)(v - load2(row + p)) & absmask);
    const v2i more = ad > ch->vworst;
    ch->vworst = (v2d)(((v2i)ch->vworst & ~more) | ((v2i)ad & more));
    ch->vnan |= ad != ad;
  }
  store2(row + p, v);
}

/* Diffusion then cooling of point (r, c), testing which of the four
   neighbours exist. With all four it is the interior computation. */
static inline double point(const double *s, intnat rows, intnat cols,
                           intnat r, intnat c, double lambda, double kappa,
                           double amb)
{
  const intnat p = (r * cols) + c;
  const double t = s[p];
  double acc = 0.0;
  if (r > 0) acc = acc + (s[p - cols] - t);
  if (c > 0) acc = acc + (s[p - 1] - t);
  if (c < cols - 1) acc = acc + (s[p + 1] - t);
  if (r < rows - 1) acc = acc + (s[p + cols] - t);
  const double d = t + (lambda * acc);
  return d - (kappa * (d - amb));
}

/* Leakage of the n points, cur -> scratch. */
static inline void leakage(const double *cur, double *s, const double *cells,
                           const double *k, intnat n)
{
  const double amb = k[AMBIENT], lw = k[LEAK_W], lc = k[LEAK_COEFF],
               dt = k[DT], cp = k[C_POINT];
  const v2d vzero = { 0.0, 0.0 }, vone = { 1.0, 1.0 };
  const v2d vamb = { amb, amb }, vlw = { lw, lw }, vlc = { lc, lc },
            vdt = { dt, dt }, vcp = { cp, cp };
  intnat p = 0;
  for (; p + 1 < n; p += 2) {
    const v2d t = load2(cur + p);
    const v2d d = t - vamb;
    const v2d excess = (v2d)((v2i)d & ((d > vzero) | (d != d)));
    const v2d leak = (vlw * (vone + (vlc * excess))) * load2(cells + p);
    store2(s + p, t + ((leak * vdt) / vcp));
  }
  for (; p < n; p++) {
    const double t = cur[p];
    const double d = t - amb;
    const double excess = (d > 0.0 || d != d) ? d : 0.0;
    const double leak = (lw * (1.0 + (lc * excess))) * cells[p];
    s[p] = t + ((leak * dt) / cp);
  }
}

static inline __attribute__((always_inline)) double
step(double *cur, double *s, const double *cells, const double *k,
     double *row, intnat rows, intnat cols, const int change)
{
  const double amb = k[AMBIENT], lambda = k[LAMBDA], kappa = k[KAPPA];
  const v2d vzero = { 0.0, 0.0 }, vamb = { amb, amb },
            vlambda = { lambda, lambda }, vkappa = { kappa, kappa };
  struct change ch = { vzero, { 0, 0 }, 0.0, 0 };

  leakage(cur, s, cells, k, rows * cols);

  /* Diffusion and cooling, scratch -> cur: the first and last rows and
     the first and last point of every other row lie on the rim. */
  for (intnat c = 0; c < cols; c++)
    keep1(&ch, cur, row, change, c,
          point(s, rows, cols, 0, c, lambda, kappa, amb));
  for (intnat r = 1; r < rows - 1; r++) {
    const intnat base = r * cols, end = base + cols - 1;
    keep1(&ch, cur, row, change, base,
          point(s, rows, cols, r, 0, lambda, kappa, amb));
    intnat p = base + 1;
    for (; p + 1 < end; p += 2) {
      const v2d t = load2(s + p);
      v2d acc = vzero + (load2(s + (p - cols)) - t);
      acc = acc + (load2(s + (p - 1)) - t);
      acc = acc + (load2(s + (p + 1)) - t);
      acc = acc + (load2(s + (p + cols)) - t);
      const v2d d = t + (vlambda * acc);
      keep2(&ch, cur, row, change, p, d - (vkappa * (d - vamb)));
    }
    /* An odd interior point left over, then the last point of the row. */
    for (; p <= end; p++)
      keep1(&ch, cur, row, change, p,
            point(s, rows, cols, r, p - base, lambda, kappa, amb));
  }
  if (rows > 1)
    for (intnat c = 0; c < cols; c++)
      keep1(&ch, cur, row, change, ((rows - 1) * cols) + c,
            point(s, rows, cols, rows - 1, c, lambda, kappa, amb));

  if (!change) return __builtin_inf();
  if (ch.nan || ch.vnan[0] || ch.vnan[1]) return __builtin_inf();
  double worst = ch.worst;
  if (ch.vworst[0] > worst) worst = ch.vworst[0];
  if (ch.vworst[1] > worst) worst = ch.vworst[1];
  return worst;
}

/* Native entry: [@@noalloc], ints untagged and the result unboxed, so a
   step allocates nothing. The arrays are OCaml flat float arrays; the
   row starts at index [base] of [rows_out]. With [change] nonzero the
   step returns the largest change, or infinity once any change is NaN;
   without, it returns infinity. Both branches inline the same step, so
   the store-only one carries no change test per point. */
double tdfa_flat_step(value cur, value scratch, value cells, value coef,
                      value rows_out, intnat rows, intnat cols, intnat base,
                      intnat change)
{
  double *c = (double *)cur, *s = (double *)scratch;
  const double *ce = (const double *)cells, *k = (const double *)coef;
  double *row = (double *)rows_out + base;
  return change ? step(c, s, ce, k, row, rows, cols, 1)
                : step(c, s, ce, k, row, rows, cols, 0);
}

value tdfa_flat_step_byte(value *argv, int argn)
{
  (void)argn;
  return caml_copy_double(tdfa_flat_step(
      argv[0], argv[1], argv[2], argv[3], argv[4], Long_val(argv[5]),
      Long_val(argv[6]), Long_val(argv[7]), Long_val(argv[8])));
}

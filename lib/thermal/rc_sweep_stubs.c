/* One Gauss-Seidel sweep of the register-file RC network over an
   anti-diagonal-major ("skewed") grid: diagonal d = r + c is stored
   contiguously, rows ascending, diagonals in order. Updating the
   diagonals in order reads exactly what the row-major sweep of
   Rc_model.steady_state reads (up and left already fresh, right and
   down still from the previous sweep), and the nodes of one diagonal
   do not depend on each other, so its interior updates two at a time.

   Every node computes, in this order and in IEEE double precision,
     acc   = (((0.0 + g*up) + g*left) + g*right) + g*down
     fresh = (rhs + acc) / g_sum
   over the neighbours it has, exactly as the boxed solver does. The
   vector lanes perform the same add, mul and div per node, so the
   result is bit-identical. That holds only without contraction into
   fused multiply-add: the file must be compiled with
   -ffp-contract=off and without -ffast-math or -march. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

typedef double v2d __attribute__((vector_size(16)));
typedef long long v2i __attribute__((vector_size(16)));

static inline v2d load2(const double *p)
{
  v2d v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline void store2(double *p, v2d v) { memcpy(p, &v, sizeof v); }

/* First row of diagonal d. */
static inline intnat diag_lo(intnat d, intnat cols)
{
  return d >= cols ? d - cols + 1 : 0;
}

/* The largest |fresh - old| of the sweep, or NaN once any node's
   change is NaN (the Float.max semantics of the boxed solver). */
static double sweep(double *t, const double *rhs, const double *g_sum,
                    intnat rows, intnat cols, double g)
{
  const intnat last = rows + cols - 2;
  const v2d vg = { g, g };
  const v2d vzero = { 0.0, 0.0 };
  const v2i absmask = { 0x7fffffffffffffffLL, 0x7fffffffffffffffLL };
  v2d vworst = vzero;
  v2i vnan = { 0, 0 };
  double worst = 0.0;
  int nan = 0;
  /* Diagonal d holds rows lo .. hi. Row r of diagonal d - 1, d and d + 1
     sits at t[pb + r], t[cb + r] and t[nb + r]. */
  intnat lo = 0, pb = 0, cb = 0;
  for (intnat d = 0; d <= last; d++) {
    const intnat hi = d < rows ? d : rows - 1;
    const intnat nb = cb + hi + 1 - diag_lo(d + 1, cols);
    /* Rows lo + 1 .. hi - 1 have all four neighbours: update them in
       pairs. Up is row r - 1 and left row r of diagonal d - 1; right is
       row r and down row r + 1 of diagonal d + 1. */
    intnat r = lo + 1;
    for (; r + 1 < hi; r += 2) {
      v2d acc = vzero + vg * load2(t + (pb + r - 1));
      acc = acc + vg * load2(t + (pb + r));
      acc = acc + vg * load2(t + (nb + r));
      acc = acc + vg * load2(t + (nb + r + 1));
      const v2d fresh =
          (load2(rhs + (cb + r)) + acc) / load2(g_sum + (cb + r));
      const v2d ad = (v2d)((v2i)(fresh - load2(t + (cb + r))) & absmask);
      const v2i more = ad > vworst;
      vworst = (v2d)(((v2i)vworst & ~more) | ((v2i)ad & more));
      vnan |= ad != ad;
      store2(t + (cb + r), fresh);
    }
    /* One at a time, testing which neighbours exist: the first row, a
       row left over from the pairs, and the last row. The first and
       last lie on the grid's edge. */
    for (intnat row = lo; row <= hi; row = row == lo ? r : row + 1) {
      const intnat col = d - row;
      double acc = 0.0;
      if (row > 0) acc = acc + g * t[pb + row - 1];
      if (col > 0) acc = acc + g * t[pb + row];
      if (col < cols - 1) acc = acc + g * t[nb + row];
      if (row < rows - 1) acc = acc + g * t[nb + row + 1];
      const double fresh = (rhs[cb + row] + acc) / g_sum[cb + row];
      const double ad = __builtin_fabs(fresh - t[cb + row]);
      if (ad > worst) worst = ad;
      nan |= ad != ad;
      t[cb + row] = fresh;
    }
    lo = diag_lo(d + 1, cols);
    pb = cb;
    cb = nb;
  }
  if (nan || vnan[0] || vnan[1]) return __builtin_nan("");
  if (vworst[0] > worst) worst = vworst[0];
  if (vworst[1] > worst) worst = vworst[1];
  return worst;
}

/* Native entry: [@@noalloc], ints untagged and floats unboxed, so a
   sweep allocates nothing. The arrays are OCaml flat float arrays. */
double tdfa_rc_sweep(value t, value rhs, value g_sum, intnat rows,
                     intnat cols, double g)
{
  return sweep((double *)t, (const double *)rhs, (const double *)g_sum, rows,
               cols, g);
}

value tdfa_rc_sweep_byte(value *argv, int argn)
{
  (void)argn;
  return caml_copy_double(tdfa_rc_sweep(argv[0], argv[1], argv[2],
                                        Long_val(argv[3]), Long_val(argv[4]),
                                        Double_val(argv[5])));
}

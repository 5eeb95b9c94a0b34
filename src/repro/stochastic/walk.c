/* The block-level walk loop: CFGWalker.run's semantics, compiled.
 *
 * The caller owns every buffer and the resume state.  One call walks
 * until the walk ends, a branch needs a uniform and the uniform block is
 * spent, or the output block is full; calling again with the same state
 * (and, after a refill, a fresh uniform block) resumes exactly there.
 *
 * st = {node, step, next phase change, next uniform, done}.
 * Returns the number of steps written to blocks/taken.
 */
#include <stdint.h>

int64_t walk(int64_t *st, int64_t max_steps,
             const int32_t *taken_succ, const int32_t *fall_succ,
             const int32_t *single_succ, const int8_t *is_branch,
             double *cur_p, int64_t *warm_left, const double *warm_p,
             const double *ch_until, const int32_t *ch_node,
             const double *ch_p, int64_t n_changes,
             const double *u, int64_t n_u,
             int32_t *blocks, int8_t *taken, int64_t out_cap)
{
    int64_t v = st[0], step = st[1], ci = st[2], ui = st[3], n = 0;
    for (; n < out_cap && step < max_steps; n++, step++) {
        while (ci < n_changes && ch_until[ci] <= (double)step) {
            cur_p[ch_node[ci]] = ch_p[ci];
            ci++;
        }
        if (is_branch[v]) {
            if (ui == n_u)
                break;
            double p = cur_p[v];
            if (warm_left[v] > 0) {
                warm_left[v]--;
                p = warm_p[v];
            }
            blocks[n] = (int32_t)v;
            taken[n] = u[ui++] < p;
            v = taken[n] ? taken_succ[v] : fall_succ[v];
        } else {
            blocks[n] = (int32_t)v;
            taken[n] = -1;
            if (single_succ[v] < 0) {
                st[4] = 1;  /* an exit node ends the walk once recorded */
                n++;
                step++;
                break;
            }
            v = single_succ[v];
        }
    }
    if (step >= max_steps)
        st[4] = 1;
    st[0] = v;
    st[1] = step;
    st[2] = ci;
    st[3] = ui;
    return n;
}

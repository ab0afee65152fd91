/* Wilson's loop-erased random walk (Algorithm 1 RANDOMFOREST), `count` times.
 *
 * Graph in CSR form (`indptr`, `indices`); every node must reach a root.
 * Uniforms come from a numpy bit generator (`next_double(state)`), so the
 * caller's Generator fixes the forests. Fills `parents` and `roots_of`,
 * both (count, n) row-major: parent -1 at roots, roots_of[u] = u's root.
 * roots_of[u] < 0 marks a node not yet in the forest; a walk overwrites
 * the arrow of a node it revisits, which erases the loop it closed.
 */
#include <stdint.h>

void wilson_forests(int64_t n, const int64_t *indptr, const int64_t *indices,
                    const int64_t *roots, int64_t n_roots, int64_t count,
                    double (*next_double)(void *), void *state,
                    int64_t *parents, int64_t *roots_of)
{
    for (int64_t b = 0; b < count; b++) {
        int64_t *par = parents + b * n, *root = roots_of + b * n;
        for (int64_t u = 0; u < n; u++)
            par[u] = root[u] = -1;
        for (int64_t i = 0; i < n_roots; i++)
            root[roots[i]] = roots[i];
        for (int64_t start = 0; start < n; start++) {
            int64_t u = start;
            while (root[u] < 0) {
                int64_t deg = indptr[u + 1] - indptr[u];
                par[u] = indices[indptr[u] + (int64_t)(next_double(state) * deg)];
                u = par[u];
            }
            int64_t r = root[u];
            for (u = start; root[u] < 0; u = par[u])
                root[u] = r;
        }
    }
}

/* Sums the (n, w) rows of `X` along the forest `parent` (parent -1 at roots):
 * down (`up` == 0, parents first) X[v] += X[parent[v]], or up (children
 * first) X[parent[v]] += X[v]. `order` (n) and `mark` (n, zeroed) are scratch.
 * A walk from each unmarked node up to a marked node or a root lays out a
 * parents-first `order`; a walk that closes a cycle (mark 3, on this walk)
 * or ends on such a node (mark 2) reaches no root. Returns the number of
 * nodes that reach no root, and writes `X` only if it is 0.
 */
int64_t tree_sums(int64_t n, int64_t w, const int64_t *parent, int up,
                  double *X, int64_t *order, int8_t *mark)
{
    int64_t placed = 0, dead = 0;
    for (int64_t s = 0; s < n; s++) {
        int64_t top = placed, u = s;
        for (; u >= 0 && !mark[u]; u = parent[u]) {
            mark[u] = 3;
            order[top++] = u;
        }
        int ok = u < 0 || mark[u] == 1;
        for (int64_t i = placed; i < top; i++)
            mark[order[i]] = ok ? 1 : 2;
        if (!ok) {
            dead += top - placed;
            continue;
        }
        for (int64_t i = placed, j = top - 1; i < j; i++, j--) {
            int64_t t = order[i];
            order[i] = order[j];
            order[j] = t;
        }
        placed = top;
    }
    if (dead)
        return dead;
    for (int64_t i = 0; i < n; i++) {
        int64_t v = order[up ? n - 1 - i : i], p = parent[v];
        if (p < 0)
            continue;
        double *restrict to = X + (up ? p : v) * w;
        const double *restrict from = X + (up ? v : p) * w;
        for (int64_t j = 0; j < w; j++)
            to[j] += from[j];
    }
    return 0;
}

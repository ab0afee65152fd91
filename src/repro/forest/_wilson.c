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

/* Compiled body of percolab.rng.child_keys, percolab.rng.unit_draws and
 * percolab.rng.count_children.
 *
 * The first two loops write exactly what the numpy body in rng.py writes,
 * with the constants of rng.py: the splitmix64 finalizer of a key plus
 * GOLDEN times the child's index + 1, and the top 53 bits of a salted
 * key's finalizer, scaled by 2^-53.  The third hashes the same children
 * and draws but writes neither: it counts the children whose draw is
 * below p into cells, as the numpy body in rng.py counts them.  _native.py
 * builds this file with the platform C compiler, checks each loop against
 * its numpy body, and falls back to numpy on any failure.
 *
 * The finalizer is two 64-bit multiplies, which plain x86-64 cannot do in
 * a vector register, so the loops are also built for x86-64-v4, whose
 * AVX-512DQ has a 64-bit vector multiply (vpmullq) and a 64-bit integer to
 * double conversion.  GCC's target_clones builds the loops once per target
 * and glibc's ifunc resolver picks one for the CPU when the object loads,
 * so the object is built without -march=native and runs on every x86-64
 * CPU.  An x86-64-v3 (AVX2) clone, with the multiply emulated, measured no
 * faster than the plain loops, so there is none.  The clones are built
 * only by GCC 12, the version they were tested with, or later; any other
 * compiler or platform builds the plain loops, which write the same bits.
 * rng.py never passes arrays that overlap.
 */
#include <stddef.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL
#define DRAW_SALT 0x5851F42D4C957F2DULL

/* glibc's stdint.h defines __GLIBC__; clang defines __GNUC__ as 4 */
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(__clang__) && __GNUC__ >= 12
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define CLONES
#endif

static inline uint64_t mix(uint64_t x)
{
    x ^= x >> 30;
    x *= MIX1;
    x ^= x >> 27;
    x *= MIX2;
    x ^= x >> 31;
    return x;
}

/* key j of key's children */
static inline uint64_t child(uint64_t key, size_t j)
{
    return mix(key + GOLDEN * (j + 1));
}

/* whether a key's draw, its top 53 bits, is below bound / 2^53: the same
 * test as draw < p with bound = ceil(p * 2^53), in integers */
static inline uint64_t alive(uint64_t key, uint64_t bound)
{
    return (mix(key ^ DRAW_SALT) >> 11) < bound;
}

/* out[i * fanout + j] = key j of keys[i]'s children, for n keys; inlined
 * with a constant fanout, the loop over j unrolls and the loop over i
 * vectorises */
static inline void children(const uint64_t *keys, size_t n, size_t fanout, uint64_t *out)
{
    for (size_t i = 0; i < n; i++)
        for (size_t j = 0; j < fanout; j++)
            out[i * fanout + j] = child(keys[i], j);
}

/* any other fanout, built for the default target only: its x86-64-v4 clone
 * vectorises over j and was slower than the plain loop at fanout 3 */
__attribute__((noinline)) static void any_children(const uint64_t *keys, size_t n,
                                                   size_t fanout, uint64_t *out)
{
    children(keys, n, fanout, out);
}

CLONES
void splitmix_child_keys(const uint64_t *keys, size_t n, size_t fanout, uint64_t *out)
{
    switch (fanout) {
    case 4: children(keys, n, 4, out); break;
    case 8: children(keys, n, 8, out); break;
    default: any_children(keys, n, fanout, out);
    }
}

/* out[i] = the uniform draw in [0, 1) of keys[i]: 53 bits < 2^53 convert exactly */
CLONES
void splitmix_unit_draws(const uint64_t *keys, size_t n, double *out)
{
    for (size_t i = 0; i < n; i++)
        out[i] = (double)(int64_t)(mix(keys[i] ^ DRAW_SALT) >> 11) * 0x1p-53;
}

/* Parents counted at a time: the loops over a block's parents vectorise,
 * and its alive counts wait in a buffer for the scatter into cells, which
 * cannot. */
#define BLOCK 64

/* Count the alive children of n keys into cells and return how many there
 * are: with no labels, at cells[0]; with a unit, at the parent's cell
 * cells[labels[i] / unit]; with unit 0, at the child's full label
 * cells[labels[i] * fanout + j].  Labels are read in order, so sorted
 * labels divide once per cell.  The loops run over a block's parents for
 * each child index j, so they vectorise at any fanout. */
__attribute__((always_inline)) static inline uint64_t count(
    const uint64_t *keys, const int64_t *labels, size_t n, size_t fanout, uint64_t bound,
    uint64_t unit, int64_t *cells)
{
    uint64_t per[BLOCK], total = 0;
    uint64_t cell = 0, first = 0; /* the current cell and its first label */
    for (size_t start = 0; start < n; start += BLOCK) {
        size_t b = n - start < BLOCK ? n - start : BLOCK;
        const uint64_t *k = keys + start;
        if (!labels) {
            for (size_t j = 0; j < fanout; j++)
                for (size_t i = 0; i < b; i++)
                    total += alive(child(k[i], j), bound);
        } else if (!unit) {
            for (size_t j = 0; j < fanout; j++) {
                for (size_t i = 0; i < b; i++)
                    per[i] = alive(child(k[i], j), bound);
                for (size_t i = 0; i < b; i++) {
                    cells[labels[start + i] * fanout + j] += per[i];
                    total += per[i];
                }
            }
        } else {
            for (size_t i = 0; i < b; i++)
                per[i] = 0;
            for (size_t j = 0; j < fanout; j++)
                for (size_t i = 0; i < b; i++)
                    per[i] += alive(child(k[i], j), bound);
            for (size_t i = 0; i < b; i++) {
                uint64_t label = labels[start + i];
                if (unit == 1) {
                    cell = label;
                } else if (label - first >= unit) {
                    cell = label / unit;
                    first = cell * unit;
                }
                cells[cell] += per[i];
                total += per[i];
            }
        }
    }
    if (!labels)
        cells[0] += total;
    return total;
}

CLONES
uint64_t splitmix_count_children(const uint64_t *keys, const int64_t *labels, size_t n,
                                 size_t fanout, uint64_t bound, uint64_t unit, int64_t *cells)
{
    switch (fanout) {
    case 4: return count(keys, labels, n, 4, bound, unit, cells);
    case 8: return count(keys, labels, n, 8, bound, unit, cells);
    default: return count(keys, labels, n, fanout, bound, unit, cells);
    }
}

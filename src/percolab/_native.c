/* Compiled loops of percolab: the bodies of rng.child_keys, rng.unit_draws
 * and rng.count_children, and of the stack geometry in holes.py.
 *
 * The first two loops write exactly what the numpy body in rng.py writes,
 * with the constants of rng.py: the splitmix64 finalizer of a key plus
 * GOLDEN times the child's index + 1, and the top 53 bits of a salted
 * key's finalizer, scaled by 2^-53.  The third hashes the same children
 * and draws but writes neither: it counts the children whose draw is
 * below p into cells, as the numpy body in rng.py counts them.  The last
 * two are the geometry of a stack of grids: every window sweep and ball
 * box sweep of int64 count grids off one summed-area table per grid, and
 * the empty-block map, as the numpy bodies in holes.py compute them.  _native.py builds this
 * file with the platform C compiler, checks each loop against its numpy
 * body, and falls back to numpy on any failure.
 *
 * The finalizer is two 64-bit multiplies, which plain x86-64 cannot do in
 * a vector register, so the hashing loops are also built for x86-64-v4,
 * whose AVX-512DQ has a 64-bit vector multiply (vpmullq) and a 64-bit
 * integer to double conversion.  GCC's target_clones builds the loops once
 * per target and glibc's ifunc resolver picks one for the CPU when the
 * object loads, so the object is built without -march=native and runs on
 * every x86-64 CPU.  An x86-64-v3 (AVX2) clone, with the multiply
 * emulated, measured no faster than the plain loops, so there is none.
 * The clones are built only by GCC 12, the version they were tested with,
 * or later; any other compiler or platform builds the plain loops, which
 * write the same bits.  Python never passes arrays that overlap.
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

/* -- stack geometry ----------------------------------------------------------
 *
 * A grid of m <= 3 spatial axes is read as three axes, the spatial ones
 * last: its 3 - m leading axes have extent 1 and are not spatial.  The
 * grids of a stack follow each other in memory.
 */

static inline int32_t min32(int32_t x, int32_t y) { return x < y ? x : y; }
static inline int64_t min64(int64_t x, int64_t y) { return x < y ? x : y; }

/* The three axes of grids of the m spatial extents shape[1 .. m]. */
static void axes3(const int64_t *shape, size_t m, size_t extent[3], int spatial[3])
{
    for (size_t d = 0; d < 3; d++) {
        spatial[d] = d + m >= 3;
        extent[d] = spatial[d] ? (size_t)shape[1 + d + m - 3] : 1;
    }
}

/* The summed-area table of one grid into t, of extents te = extent +
 * spatial: entry i sums the cells below i on every spatial axis, so index
 * 0 of a spatial axis is 0.  Every entry is the sum of a box of cells,
 * which fits int32. */
static void summed_table(const int64_t *cells, const size_t extent[3], const int spatial[3],
                         const size_t te[3], int32_t *t)
{
    size_t row = te[2], plane = te[1] * row, c = 0;
    for (size_t i = 0; i < te[0] * plane; i++)
        t[i] = 0;
    for (size_t i0 = 0; i0 < extent[0]; i0++)
        for (size_t i1 = 0; i1 < extent[1]; i1++) {
            int32_t *r = t + (i0 + spatial[0]) * plane + (i1 + spatial[1]) * row, sum = 0;
            for (size_t i2 = 0; i2 < extent[2]; i2++)
                r[i2 + 1] = sum += (int32_t)cells[c++];
        }
    if (spatial[1])
        for (size_t i0 = 0; i0 < te[0]; i0++)
            for (size_t i1 = 1; i1 < te[1]; i1++)
                for (size_t i2 = 0; i2 < row; i2++)
                    t[i0 * plane + i1 * row + i2] += t[i0 * plane + (i1 - 1) * row + i2];
    if (spatial[0])
        for (size_t i0 = 1; i0 < te[0]; i0++)
            for (size_t i = 0; i < plane; i++)
                t[i0 * plane + i] += t[(i0 - 1) * plane + i];
}

/* u = t of extents e differenced at lag a along axis d, so u's extent on d
 * is e[d] - a.  For each index on the axes before d, the entries on d and
 * after are one contiguous run in both. */
static void difference(const int32_t *restrict t, const size_t e[3], size_t d, size_t a,
                       int32_t *restrict u)
{
    size_t outer = 1, inner = 1;
    for (size_t i = 0; i < d; i++)
        outer *= e[i];
    for (size_t i = d + 1; i < 3; i++)
        inner *= e[i];
    size_t run = (e[d] - a) * inner;
    for (size_t o = 0; o < outer; o++, t += e[d] * inner, u += run)
        for (size_t i = 0; i < run; i++)
            u[i] = t[i + a * inner] - t[i];
}

/* The least entry of w, of extents e, at indices first .. last on each axis. */
static int32_t least(const int32_t *w, const size_t e[3], const size_t first[3],
                     const size_t last[3])
{
    int32_t low = INT32_MAX;
    for (size_t i0 = first[0]; i0 <= last[0]; i0++)
        for (size_t i1 = first[1]; i1 <= last[1]; i1++) {
            const int32_t *r = w + (i0 * e[1] + i1) * e[2];
            for (size_t i2 = first[2]; i2 <= last[2]; i2++)
                low = min32(low, r[i2]);
        }
    return low;
}

/* The window sweeps of shape[0] grids of int64 cells and the m spatial
 * extents shape[1 .. m], whose tables hold their sums in int32.  Row g of
 * out, of cols entries, gets grid g's least sum of a side-a window at [a],
 * for every a up to the smallest extent width.  Unless boxes is NULL, it
 * holds per grid and spatial axis a box's first cell and its end, and row
 * g also gets the box's least side-a window sum at [width + 1 + a], for
 * every a up to the box's narrowest extent; a box's side-a windows are the
 * grid's whose lowest cell lies in lo .. hi - a.  Every other entry of out
 * is left as it is.  scratch holds three tables of one grid. */
void geometry_sweeps(const int64_t *cells, const int64_t *shape, size_t m, const int64_t *boxes,
                     int32_t *scratch, int64_t *out, size_t cols)
{
    size_t extent[3], te[3], size = 1, count = 1, width = SIZE_MAX;
    int spatial[3];
    axes3(shape, m, extent, spatial);
    for (size_t d = 0; d < 3; d++) {
        te[d] = extent[d] + spatial[d];
        size *= te[d];
        count *= extent[d];
        if (spatial[d])
            width = extent[d] < width ? extent[d] : width;
    }
    const size_t zero[3] = {0, 0, 0};
    int32_t *t = scratch, *buffers[2] = {scratch + size, scratch + 2 * size};
    for (size_t g = 0; g < (size_t)shape[0]; g++) {
        int64_t *row = out + g * cols;
        summed_table(cells + g * count, extent, spatial, te, t);
        size_t lo[3] = {0, 0, 0}, hi[3] = {1, 1, 1}, narrowest = 0;
        if (boxes) {
            narrowest = width;
            for (size_t d = 3 - m; d < 3; d++) {
                lo[d] = (size_t)boxes[2 * (g * m + d + m - 3)];
                hi[d] = (size_t)boxes[2 * (g * m + d + m - 3) + 1];
                narrowest = hi[d] - lo[d] < narrowest ? hi[d] - lo[d] : narrowest;
            }
        }
        for (size_t a = 1; a <= width; a++) {
            const int32_t *w = t;
            size_t e[3] = {te[0], te[1], te[2]}, last[3], first[3];
            for (size_t d = 3 - m; d < 3; d++) {
                difference(w, e, d, a, buffers[d & 1]);
                w = buffers[d & 1];
                e[d] -= a;
            }
            /* w holds every side-a window's sum, at the window's lowest cell */
            const size_t all[3] = {1, 1, e[0] * e[1] * e[2]}, end[3] = {0, 0, all[2] - 1};
            row[a] = least(w, all, zero, end);
            if (a > narrowest)
                continue;
            for (size_t d = 0; d < 3; d++) {
                first[d] = lo[d];
                last[d] = spatial[d] ? hi[d] - a : 0;
            }
            row[width + 1 + a] = least(w, e, first, last);
        }
    }
}

/* The empty-block map of shape[0] occupancy grids of the m spatial extents
 * shape[1 .. m]: sides[x] is 0 where x is occupied, else 1 + the least
 * side at x's 2^m - 1 lower neighbours (x less 1 on some of its spatial
 * axes), one outside the grid being 0.  That is the side of the largest
 * empty block whose highest cell is x.  Along the last axis, the side at
 * x - 1 and the least side of its other lower neighbours carry over. */
void geometry_empty_sides(const uint8_t *occupied, const int64_t *shape, size_t m, int64_t *sides)
{
    size_t extent[3];
    int spatial[3];
    axes3(shape, m, extent, spatial);
    ptrdiff_t row = (ptrdiff_t)extent[2], plane = (ptrdiff_t)extent[1] * row;
    for (size_t x = 0; x < (size_t)shape[0] * extent[0] * extent[1]; x++) {
        size_t i1 = x % extent[1], i0 = x / extent[1] % extent[0];
        const uint8_t *occ = occupied + x * row;
        int64_t *s = sides + x * row;
        /* the lower neighbours off the last axis are in the grid */
        int inside = (!spatial[0] || i0) && (!spatial[1] || i1);
        int64_t left = 0, corner = 0; /* at the previous cell: its side, its other neighbours' */
        for (ptrdiff_t k = 0; k < row; k++) {
            int64_t up = inside ? INT64_MAX : 0; /* least side of x's neighbours off the last axis */
            if (inside && spatial[0])
                up = min64(up, s[k - plane]);
            if (inside && spatial[1])
                up = min64(up, s[k - row]);
            if (inside && spatial[0] && spatial[1])
                up = min64(up, s[k - plane - row]);
            int64_t side = occ[k] ? 0 : 1 + min64(min64(up, corner), left);
            s[k] = side;
            left = side;
            corner = up;
        }
    }
}

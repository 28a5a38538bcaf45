/* Compiled body of percolab.rng.child_keys and percolab.rng.unit_draws.
 *
 * Each loop writes exactly what the numpy body in rng.py writes, with the
 * constants of rng.py: the splitmix64 finalizer of a key plus GOLDEN times
 * the child's index + 1, and the top 53 bits of a salted key's finalizer,
 * scaled by 2^-53.  rng.py builds this file with the platform C compiler,
 * checks the object against the numpy body, and falls back to numpy on
 * any failure.
 */
#include <stddef.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL
#define DRAW_SALT 0x5851F42D4C957F2DULL

static inline uint64_t mix(uint64_t x)
{
    x ^= x >> 30;
    x *= MIX1;
    x ^= x >> 27;
    x *= MIX2;
    x ^= x >> 31;
    return x;
}

/* out[i * fanout + j] = key j of keys[i]'s children, for n keys */
void splitmix_child_keys(const uint64_t *keys, size_t n, size_t fanout, uint64_t *out)
{
    for (size_t i = 0; i < n; i++)
        for (size_t j = 0; j < fanout; j++)
            out[i * fanout + j] = mix(keys[i] + GOLDEN * (j + 1));
}

/* out[i] = the uniform draw in [0, 1) of keys[i]: 53 bits < 2^53 convert exactly */
void splitmix_unit_draws(const uint64_t *keys, size_t n, double *out)
{
    for (size_t i = 0; i < n; i++)
        out[i] = (double)(int64_t)(mix(keys[i] ^ DRAW_SALT) >> 11) * 0x1p-53;
}

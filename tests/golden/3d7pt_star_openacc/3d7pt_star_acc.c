/* 3d7pt_star — OpenACC C in the style of the paper's Sunway baseline */
#include <stdio.h>
#include <stdlib.h>
#include <stdint.h>

/* grid geometry (interior extents, halo, window, padded strides) */
#define N0 20L
#define N1 20L
#define N2 20L
#define HALO 1L
#define WIN 3
#define P0 (N0 + 2*HALO)
#define P1 (N1 + 2*HALO)
#define P2 (N2 + 2*HALO)
#define S0 (P1 * P2)
#define S1 (P2)
#define S2 1L
#define IDX(k, j, i) (((k) + HALO) * S0 + ((j) + HALO) * S1 + ((i) + HALO))
#define PADDED (P0 * P1 * P2)
#define SLOT(t) ((int)((((t) % WIN) + WIN) % WIN))

/* deterministic input seeding (replaces the paper's /data/rand.data);
 * interior cells only, in row-major order — bit-identical to the
 * values the MSC host executor seeds, so checksums are comparable. */
static uint64_t splitmix64(uint64_t *s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

static void seed_grid(double *g, uint64_t seed) {
  uint64_t s = seed;
  for (long k = 0; k < N0; ++k) {
    for (long j = 0; j < N1; ++j) {
      for (long i = 0; i < N2; ++i) {
        g[IDX(k, j, i)] = (double)(-1.0 + 2.0 * ((double)(splitmix64(&s) >> 11) * 0x1.0p-53));
      }
    }
  }
}

static void sweep(double *const *g, long t) {
  double *restrict out = g[SLOT(t)];
  const double *restrict in_m1 = g[SLOT(t + (-1))];
  const double *restrict in_m2 = g[SLOT(t + (-2))];
  #pragma acc data copyin(in_m1[0:PADDED], in_m2[0:PADDED]) copy(out[0:PADDED])
  #pragma acc parallel loop tile(*)
  for (long k = 0; k < N0; ++k) {
    for (long j = 0; j < N1; ++j) {
      for (long i = 0; i < N2; ++i) {
        out[IDX(k, j, i)] = 0.077142857142857152 * in_m1[IDX(k, j, i)]
        + -0.082653061224489802 * in_m1[IDX(k - 1, j, i)]
        + 0.088163265306122451 * in_m1[IDX(k + 1, j, i)]
        + -0.093673469387755101 * in_m1[IDX(k, j - 1, i)]
        + 0.099183673469387765 * in_m1[IDX(k, j + 1, i)]
        + -0.10469387755102043 * in_m1[IDX(k, j, i - 1)]
        + 0.11020408163265308 * in_m1[IDX(k, j, i + 1)]
        + 0.051428571428571435 * in_m2[IDX(k, j, i)]
        + -0.055102040816326539 * in_m2[IDX(k - 1, j, i)]
        + 0.058775510204081644 * in_m2[IDX(k + 1, j, i)]
        + -0.062448979591836741 * in_m2[IDX(k, j - 1, i)]
        + 0.066122448979591839 * in_m2[IDX(k, j + 1, i)]
        + -0.069795918367346957 * in_m2[IDX(k, j, i - 1)]
        + 0.073469387755102061 * in_m2[IDX(k, j, i + 1)];
      }
    }
  }
}

int main(int argc, char **argv) {
  long timesteps = argc > 1 ? atol(argv[1]) : 10;
  double *g[WIN];
  for (int w = 0; w < WIN; ++w) {
    g[w] = (double *)calloc((size_t)PADDED, sizeof(double));
    if (g[w] == NULL) { fprintf(stderr, "alloc failed\n"); return 1; }
    seed_grid(g[w], 42u + 0x51ed2701u * (unsigned)w);
  }

  for (long t = 1; t <= timesteps; ++t) {
    sweep(g, t);
  }

  /* interior checksum for cross-backend validation */
  double checksum = 0.0;
  double *final = g[SLOT(timesteps)];
  for (long k = 0; k < N0; ++k) {
    for (long j = 0; j < N1; ++j) {
      for (long i = 0; i < N2; ++i) {
        checksum += (double)final[IDX(k, j, i)];
      }
    }
  }
  printf("checksum %.17g\n", checksum);
  for (int w = 0; w < WIN; ++w) free(g[w]);
  return 0;
}

/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(double *centroids, int *membership, double *pts, int nclu, int nf, int npts)
{
  int bestc; /* private (per-thread register) */
  double bestd; /* private (per-thread register) */
  double dsum; /* private (per-thread register) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < npts) {
    bestd = 1000000.0;
    bestc = 0;
    for (int c = 0; c < nclu; c = c + 1) {
      dsum = 0.0;
      for (int f = 0; f < nf; f = f + 1) {
        dsum = dsum + (pts[i][f] - centroids[c][f]) * (pts[i][f] - centroids[c][f]);
      }
      if (dsum < bestd) {
        bestd = dsum;
        bestc = c;
      }
    }
    membership[i] = bestc;
  }
}

__global__ void main_kernel1(double *centroids, double *errs, int *membership, double *pts, int nf, int npts)
{
  double dmin; /* private (per-thread register) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < npts) {
    dmin = 0.0;
    for (int f = 0; f < nf; f = f + 1) {
      dmin = dmin + (pts[i][f] - centroids[membership[i]][f]) * (pts[i][f] - centroids[membership[i]][f]);
    }
    errs[i] = dmin;
  }
}

int main()
{
  int npts = 128;
  int nclu = 4;
  int nf = 3;
  int iters = 6;
  float pts[npts][nf];
  float centroids[nclu][nf];
  int membership[npts];
  float errs[npts];
  float bestd;
  int bestc;
  float dsum;
  float dmin;
  HI_check_write(pts, CPU);
  for (int i = 0; i < npts; i = i + 1) {
    for (int f = 0; f < nf; f = f + 1) {
      pts[i][f] = float((i * 37 + f * 11) % 100) * 0.01;
    }
  }
  HI_check_write(centroids, CPU);
  for (int c = 0; c < nclu; c = c + 1) {
    for (int f = 0; f < nf; f = f + 1) {
      centroids[c][f] = 0.25 * float(c) + 0.050000000000000003 * float(f);
    }
  }
  cudaMalloc(&d_pts, sizeof(pts)); /* data94.alloc(pts) */
  memcpyin(pts, cudaMemcpyHostToDevice); /* data94.copyin(pts) */
  cudaMalloc(&d_centroids, sizeof(centroids)); /* data94.alloc(centroids) */
  memcpyin(centroids, cudaMemcpyHostToDevice); /* data94.copyin(centroids) */
  cudaMalloc(&d_membership, sizeof(membership)); /* data94.alloc(membership) */
  cudaMalloc(&d_errs, sizeof(errs)); /* data94.alloc(errs) */
  {
    HI_check_write(errs, GPU);
    for (intit = 0; it < iters; it = it + 1) {
      memcpyin(centroids, cudaMemcpyHostToDevice); /* update0.device(centroids) */
      HI_check_read(centroids, GPU);
      HI_check_read(pts, GPU);
      HI_check_write(membership, GPU);
      kernel0<<<gangs, workers>>>(...);
      HI_check_read(centroids, GPU);
      HI_check_read(membership, GPU);
      HI_check_read(pts, GPU);
      kernel1<<<gangs, workers>>>(...);
      memcpyout(membership, cudaMemcpyDeviceToHost); /* update1.host(membership) */
      HI_check_read(membership, CPU);
      HI_check_read(pts, CPU);
      HI_check_write(centroids, CPU);
      for (int c = 0; c < nclu; c = c + 1) {
        float cnt = 0.0;
        for (int f = 0; f < nf; f = f + 1) {
          float s = 0.0;
          cnt = 0.0;
          for (int i = 0; i < npts; i = i + 1) {
            if (membership[i] == c) {
              s = s + pts[i][f];
              cnt = cnt + 1.0;
            }
          }
          if (cnt > 0.0) {
            centroids[c][f] = s / cnt;
          }
        }
      }
    }
  }
  cudaFree(d_pts); /* data94.free(pts) */
  cudaFree(d_centroids); /* data94.free(centroids) */
  cudaFree(d_membership); /* data94.free(membership) */
  memcpyout(errs, cudaMemcpyDeviceToHost); /* data94.copyout(errs) */
  cudaFree(d_errs); /* data94.free(errs) */
  float toterr = 0.0;
  HI_check_read(errs, CPU);
  for (int i = 0; i < npts; i = i + 1) {
    toterr = toterr + errs[i];
  }
  return 0;
}

/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(double *centroids, int *membership, double *pts, int nclu, int nf, int npts)
{
  int bestc; /* unsynchronized shared (latent race) */
  double bestd; /* unsynchronized shared (latent race) */
  double dsum; /* unsynchronized shared (latent race) */
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
  double dmin; /* unsynchronized shared (latent race) */
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
  for (intit = 0; it < iters; it = it + 1) {
    cudaMalloc(&d_centroids, sizeof(centroids)); /* main_kernel0.alloc(centroids) */
    memcpyin(centroids, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(centroids) */
    cudaMalloc(&d_membership, sizeof(membership)); /* main_kernel0.alloc(membership) */
    memcpyin(membership, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(membership) */
    cudaMalloc(&d_pts, sizeof(pts)); /* main_kernel0.alloc(pts) */
    memcpyin(pts, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(pts) */
    HI_check_read(centroids, GPU);
    HI_check_read(pts, GPU);
    HI_check_write(membership, GPU);
    kernel0<<<gangs, workers>>>(...);
    memcpyout(centroids, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(centroids) */
    memcpyout(membership, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(membership) */
    memcpyout(pts, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(pts) */
    cudaMalloc(&d_centroids, sizeof(centroids)); /* main_kernel1.alloc(centroids) */
    memcpyin(centroids, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(centroids) */
    cudaMalloc(&d_errs, sizeof(errs)); /* main_kernel1.alloc(errs) */
    memcpyin(errs, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(errs) */
    cudaMalloc(&d_membership, sizeof(membership)); /* main_kernel1.alloc(membership) */
    memcpyin(membership, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(membership) */
    cudaMalloc(&d_pts, sizeof(pts)); /* main_kernel1.alloc(pts) */
    memcpyin(pts, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(pts) */
    HI_check_read(centroids, GPU);
    HI_check_read(membership, GPU);
    HI_check_read(pts, GPU);
    HI_check_write(errs, GPU);
    kernel1<<<gangs, workers>>>(...);
    memcpyout(centroids, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(centroids) */
    memcpyout(errs, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(errs) */
    memcpyout(membership, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(membership) */
    memcpyout(pts, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(pts) */
    memcpyout(membership, cudaMemcpyDeviceToHost); /* update0.host(membership) */
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
  float toterr = 0.0;
  HI_check_read(errs, CPU);
  for (int i = 0; i < npts; i = i + 1) {
    toterr = toterr + errs[i];
  }
  return 0;
}

/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(double *dens, double *dens_old, double *ener, double *ener_old, double *momx, double *momx_old, double *momy, double *momy_old, int n)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    dens_old[i] = dens[i];
    momx_old[i] = momx[i];
    momy_old[i] = momy[i];
    ener_old[i] = ener[i];
  }
}

__global__ void main_kernel1(double *dens, double *momx, double *momy, double *sf, int n)
{
  double t1; /* private (per-thread register) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    t1 = dens[i] * dens[i] + momx[i] * momx[i] + momy[i] * momy[i] + 0.10000000000000001;
    sf[i] = 0.5 / sqrt(t1);
  }
}

__global__ void main_kernel2(double *dens, double *fluxd, double *momx, double *momy, int n)
{
  double t2; /* private (per-thread register) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    t2 = momx[i] + momy[i];
    fluxd[i] = t2 - dens[i] * 0.10000000000000001;
  }
}

__global__ void main_kernel3(double *dens, double *ener, double *fluxmx, double *momx, int n)
{
  double t3; /* private (per-thread register) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    t3 = (ener[i] + dens[i] * 0.40000000000000002) / (dens[i] + 0.5);
    fluxmx[i] = momx[i] * t3;
  }
}

__global__ void main_kernel4(double *dens, double *ener, double *fluxmy, double *momy, int n)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    fluxmy[i] = momy[i] * (ener[i] + dens[i] * 0.40000000000000002) / (dens[i] + 0.5);
  }
}

__global__ void main_kernel5(double *dens, double *ener, double *fluxe, double *momx, double *momy, int n)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    fluxe[i] = (momx[i] + momy[i]) * (ener[i] + 0.40000000000000002) / (dens[i] + 0.5);
  }
}

__global__ void main_kernel6(double *dens, double *dens_old, double *fluxd, double *sf, int n)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    dens[i] = dens_old[i] + sf[i] * fluxd[i] * 0.01;
  }
}

__global__ void main_kernel7(double *fluxmx, double *fluxmy, double *momx, double *momx_old, double *momy, double *momy_old, double *sf, int n)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    momx[i] = momx_old[i] + sf[i] * fluxmx[i] * 0.01;
    momy[i] = momy_old[i] + sf[i] * fluxmy[i] * 0.01;
  }
}

__global__ void main_kernel8(double *ener, double *ener_old, double *fluxe, double *sf, int n)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    ener[i] = ener_old[i] + sf[i] * fluxe[i] * 0.01;
  }
}

int main()
{
  int n = 64;
  int steps = 5;
  int verbose = 0;
  float dens[n];
  float momx[n];
  float momy[n];
  float ener[n];
  float dens_old[n];
  float momx_old[n];
  float momy_old[n];
  float ener_old[n];
  float sf[n];
  float fluxd[n];
  float fluxmx[n];
  float fluxmy[n];
  float fluxe[n];
  float t1;
  float t2;
  float t3;
  float vcheck = 0.0;
  HI_check_write(dens, CPU);
  HI_check_write(ener, CPU);
  HI_check_write(momx, CPU);
  HI_check_write(momy, CPU);
  for (int i = 0; i < n; i = i + 1) {
    dens[i] = 1.0 + 0.01 * float(i % 11);
    momx[i] = 0.10000000000000001 * float(i % 7);
    momy[i] = 0.050000000000000003 * float(i % 5);
    ener[i] = 2.0 + 0.01 * float(i % 13);
  }
  cudaMalloc(&d_dens, sizeof(dens)); /* data103.alloc(dens) */
  memcpyin(dens, cudaMemcpyHostToDevice); /* data103.copy(dens) */
  cudaMalloc(&d_momx, sizeof(momx)); /* data103.alloc(momx) */
  memcpyin(momx, cudaMemcpyHostToDevice); /* data103.copy(momx) */
  cudaMalloc(&d_momy, sizeof(momy)); /* data103.alloc(momy) */
  memcpyin(momy, cudaMemcpyHostToDevice); /* data103.copy(momy) */
  cudaMalloc(&d_ener, sizeof(ener)); /* data103.alloc(ener) */
  memcpyin(ener, cudaMemcpyHostToDevice); /* data103.copy(ener) */
  cudaMalloc(&d_dens_old, sizeof(dens_old)); /* data103.alloc(dens_old) */
  cudaMalloc(&d_momx_old, sizeof(momx_old)); /* data103.alloc(momx_old) */
  cudaMalloc(&d_momy_old, sizeof(momy_old)); /* data103.alloc(momy_old) */
  cudaMalloc(&d_ener_old, sizeof(ener_old)); /* data103.alloc(ener_old) */
  cudaMalloc(&d_sf, sizeof(sf)); /* data103.alloc(sf) */
  cudaMalloc(&d_fluxd, sizeof(fluxd)); /* data103.alloc(fluxd) */
  cudaMalloc(&d_fluxmx, sizeof(fluxmx)); /* data103.alloc(fluxmx) */
  cudaMalloc(&d_fluxmy, sizeof(fluxmy)); /* data103.alloc(fluxmy) */
  cudaMalloc(&d_fluxe, sizeof(fluxe)); /* data103.alloc(fluxe) */
  {
    for (intt = 0; t < steps; t = t + 1) {
      HI_check_read(dens, GPU);
      HI_check_read(ener, GPU);
      HI_check_read(momx, GPU);
      HI_check_read(momy, GPU);
      HI_check_write(dens_old, GPU);
      HI_check_write(ener_old, GPU);
      HI_check_write(momx_old, GPU);
      HI_check_write(momy_old, GPU);
      kernel0<<<gangs, workers>>>(...);
      HI_reset_status(dens_old, CPU, notstale);
      HI_reset_status(ener_old, CPU, notstale);
      HI_reset_status(momx_old, CPU, notstale);
      HI_reset_status(momy_old, CPU, notstale);
      HI_check_read(dens, GPU);
      HI_check_read(momx, GPU);
      HI_check_read(momy, GPU);
      HI_check_write(sf, GPU);
      kernel1<<<gangs, workers>>>(...);
      HI_reset_status(sf, CPU, notstale);
      HI_check_read(dens, GPU);
      HI_check_read(momx, GPU);
      HI_check_read(momy, GPU);
      HI_check_write(fluxd, GPU);
      kernel2<<<gangs, workers>>>(...);
      HI_reset_status(fluxd, CPU, notstale);
      HI_check_read(dens, GPU);
      HI_check_read(ener, GPU);
      HI_check_read(momx, GPU);
      HI_check_write(fluxmx, GPU);
      kernel3<<<gangs, workers>>>(...);
      HI_reset_status(fluxmx, CPU, notstale);
      HI_check_read(dens, GPU);
      HI_check_read(ener, GPU);
      HI_check_read(momy, GPU);
      HI_check_write(fluxmy, GPU);
      kernel4<<<gangs, workers>>>(...);
      HI_reset_status(fluxmy, CPU, notstale);
      HI_check_read(dens, GPU);
      HI_check_read(ener, GPU);
      HI_check_read(momx, GPU);
      HI_check_read(momy, GPU);
      HI_check_write(fluxe, GPU);
      kernel5<<<gangs, workers>>>(...);
      HI_reset_status(fluxe, CPU, notstale);
      HI_check_read(dens_old, GPU);
      HI_check_read(fluxd, GPU);
      HI_check_read(sf, GPU);
      HI_check_write(dens, GPU);
      kernel6<<<gangs, workers>>>(...);
      HI_check_read(fluxmx, GPU);
      HI_check_read(fluxmy, GPU);
      HI_check_read(momx_old, GPU);
      HI_check_read(momy_old, GPU);
      HI_check_read(sf, GPU);
      HI_check_write(momx, GPU);
      HI_check_write(momy, GPU);
      kernel7<<<gangs, workers>>>(...);
      HI_reset_status(momx, CPU, notstale);
      HI_reset_status(momy, CPU, notstale);
      HI_check_read(ener_old, GPU);
      HI_check_read(fluxe, GPU);
      HI_check_read(sf, GPU);
      HI_check_write(ener, GPU);
      kernel8<<<gangs, workers>>>(...);
      if (verbose == 1) {
        memcpyout(ener, cudaMemcpyDeviceToHost); /* update0.host(ener) */
        HI_check_read(ener, CPU);
        for (int i = 0; i < n; i = i + 1) {
          vcheck = vcheck + ener[i];
        }
      }
    }
  }
  memcpyout(dens, cudaMemcpyDeviceToHost); /* data103.copyout(dens) */
  cudaFree(d_dens); /* data103.free(dens) */
  memcpyout(momx, cudaMemcpyDeviceToHost); /* data103.copyout(momx) */
  cudaFree(d_momx); /* data103.free(momx) */
  memcpyout(momy, cudaMemcpyDeviceToHost); /* data103.copyout(momy) */
  cudaFree(d_momy); /* data103.free(momy) */
  memcpyout(ener, cudaMemcpyDeviceToHost); /* data103.copyout(ener) */
  cudaFree(d_ener); /* data103.free(ener) */
  cudaFree(d_dens_old); /* data103.free(dens_old) */
  cudaFree(d_momx_old); /* data103.free(momx_old) */
  cudaFree(d_momy_old); /* data103.free(momy_old) */
  cudaFree(d_ener_old); /* data103.free(ener_old) */
  cudaFree(d_sf); /* data103.free(sf) */
  cudaFree(d_fluxd); /* data103.free(fluxd) */
  cudaFree(d_fluxmx); /* data103.free(fluxmx) */
  cudaFree(d_fluxmy); /* data103.free(fluxmy) */
  cudaFree(d_fluxe); /* data103.free(fluxe) */
  float dsum = 0.0;
  float esum = 0.0;
  HI_check_read(dens, CPU);
  HI_check_read(ener, CPU);
  for (int i = 0; i < n; i = i + 1) {
    dsum = dsum + dens[i];
    esum = esum + ener[i];
  }
  return 0;
}

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
  for (intt = 0; t < steps; t = t + 1) {
    cudaMalloc(&d_dens, sizeof(dens)); /* main_kernel0.alloc(dens) */
    memcpyin(dens, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(dens) */
    cudaMalloc(&d_dens_old, sizeof(dens_old)); /* main_kernel0.alloc(dens_old) */
    memcpyin(dens_old, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(dens_old) */
    cudaMalloc(&d_ener, sizeof(ener)); /* main_kernel0.alloc(ener) */
    memcpyin(ener, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(ener) */
    cudaMalloc(&d_ener_old, sizeof(ener_old)); /* main_kernel0.alloc(ener_old) */
    memcpyin(ener_old, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(ener_old) */
    cudaMalloc(&d_momx, sizeof(momx)); /* main_kernel0.alloc(momx) */
    memcpyin(momx, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(momx) */
    cudaMalloc(&d_momx_old, sizeof(momx_old)); /* main_kernel0.alloc(momx_old) */
    memcpyin(momx_old, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(momx_old) */
    cudaMalloc(&d_momy, sizeof(momy)); /* main_kernel0.alloc(momy) */
    memcpyin(momy, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(momy) */
    cudaMalloc(&d_momy_old, sizeof(momy_old)); /* main_kernel0.alloc(momy_old) */
    memcpyin(momy_old, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(momy_old) */
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
    memcpyout(dens, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(dens) */
    memcpyout(dens_old, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(dens_old) */
    memcpyout(ener, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(ener) */
    memcpyout(ener_old, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(ener_old) */
    memcpyout(momx, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(momx) */
    memcpyout(momx_old, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(momx_old) */
    memcpyout(momy, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(momy) */
    memcpyout(momy_old, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(momy_old) */
    cudaMalloc(&d_dens, sizeof(dens)); /* main_kernel1.alloc(dens) */
    memcpyin(dens, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(dens) */
    cudaMalloc(&d_momx, sizeof(momx)); /* main_kernel1.alloc(momx) */
    memcpyin(momx, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(momx) */
    cudaMalloc(&d_momy, sizeof(momy)); /* main_kernel1.alloc(momy) */
    memcpyin(momy, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(momy) */
    cudaMalloc(&d_sf, sizeof(sf)); /* main_kernel1.alloc(sf) */
    memcpyin(sf, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(sf) */
    HI_check_read(dens, GPU);
    HI_check_read(momx, GPU);
    HI_check_read(momy, GPU);
    HI_check_write(sf, GPU);
    kernel1<<<gangs, workers>>>(...);
    HI_reset_status(sf, CPU, notstale);
    memcpyout(dens, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(dens) */
    memcpyout(momx, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(momx) */
    memcpyout(momy, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(momy) */
    memcpyout(sf, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(sf) */
    cudaMalloc(&d_dens, sizeof(dens)); /* main_kernel2.alloc(dens) */
    memcpyin(dens, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(dens) */
    cudaMalloc(&d_fluxd, sizeof(fluxd)); /* main_kernel2.alloc(fluxd) */
    memcpyin(fluxd, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(fluxd) */
    cudaMalloc(&d_momx, sizeof(momx)); /* main_kernel2.alloc(momx) */
    memcpyin(momx, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(momx) */
    cudaMalloc(&d_momy, sizeof(momy)); /* main_kernel2.alloc(momy) */
    memcpyin(momy, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(momy) */
    HI_check_read(dens, GPU);
    HI_check_read(momx, GPU);
    HI_check_read(momy, GPU);
    HI_check_write(fluxd, GPU);
    kernel2<<<gangs, workers>>>(...);
    HI_reset_status(fluxd, CPU, notstale);
    memcpyout(dens, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(dens) */
    memcpyout(fluxd, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(fluxd) */
    memcpyout(momx, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(momx) */
    memcpyout(momy, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(momy) */
    cudaMalloc(&d_dens, sizeof(dens)); /* main_kernel3.alloc(dens) */
    memcpyin(dens, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(dens) */
    cudaMalloc(&d_ener, sizeof(ener)); /* main_kernel3.alloc(ener) */
    memcpyin(ener, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(ener) */
    cudaMalloc(&d_fluxmx, sizeof(fluxmx)); /* main_kernel3.alloc(fluxmx) */
    memcpyin(fluxmx, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(fluxmx) */
    cudaMalloc(&d_momx, sizeof(momx)); /* main_kernel3.alloc(momx) */
    memcpyin(momx, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(momx) */
    HI_check_read(dens, GPU);
    HI_check_read(ener, GPU);
    HI_check_read(momx, GPU);
    HI_check_write(fluxmx, GPU);
    kernel3<<<gangs, workers>>>(...);
    HI_reset_status(fluxmx, CPU, notstale);
    memcpyout(dens, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(dens) */
    memcpyout(ener, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(ener) */
    memcpyout(fluxmx, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(fluxmx) */
    memcpyout(momx, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(momx) */
    cudaMalloc(&d_dens, sizeof(dens)); /* main_kernel4.alloc(dens) */
    memcpyin(dens, cudaMemcpyHostToDevice); /* main_kernel4.pcopyin(dens) */
    cudaMalloc(&d_ener, sizeof(ener)); /* main_kernel4.alloc(ener) */
    memcpyin(ener, cudaMemcpyHostToDevice); /* main_kernel4.pcopyin(ener) */
    cudaMalloc(&d_fluxmy, sizeof(fluxmy)); /* main_kernel4.alloc(fluxmy) */
    memcpyin(fluxmy, cudaMemcpyHostToDevice); /* main_kernel4.pcopyin(fluxmy) */
    cudaMalloc(&d_momy, sizeof(momy)); /* main_kernel4.alloc(momy) */
    memcpyin(momy, cudaMemcpyHostToDevice); /* main_kernel4.pcopyin(momy) */
    HI_check_read(dens, GPU);
    HI_check_read(ener, GPU);
    HI_check_read(momy, GPU);
    HI_check_write(fluxmy, GPU);
    kernel4<<<gangs, workers>>>(...);
    HI_reset_status(fluxmy, CPU, notstale);
    memcpyout(dens, cudaMemcpyDeviceToHost); /* main_kernel4.pcopyout(dens) */
    memcpyout(ener, cudaMemcpyDeviceToHost); /* main_kernel4.pcopyout(ener) */
    memcpyout(fluxmy, cudaMemcpyDeviceToHost); /* main_kernel4.pcopyout(fluxmy) */
    memcpyout(momy, cudaMemcpyDeviceToHost); /* main_kernel4.pcopyout(momy) */
    cudaMalloc(&d_dens, sizeof(dens)); /* main_kernel5.alloc(dens) */
    memcpyin(dens, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(dens) */
    cudaMalloc(&d_ener, sizeof(ener)); /* main_kernel5.alloc(ener) */
    memcpyin(ener, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(ener) */
    cudaMalloc(&d_fluxe, sizeof(fluxe)); /* main_kernel5.alloc(fluxe) */
    memcpyin(fluxe, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(fluxe) */
    cudaMalloc(&d_momx, sizeof(momx)); /* main_kernel5.alloc(momx) */
    memcpyin(momx, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(momx) */
    cudaMalloc(&d_momy, sizeof(momy)); /* main_kernel5.alloc(momy) */
    memcpyin(momy, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(momy) */
    HI_check_read(dens, GPU);
    HI_check_read(ener, GPU);
    HI_check_read(momx, GPU);
    HI_check_read(momy, GPU);
    HI_check_write(fluxe, GPU);
    kernel5<<<gangs, workers>>>(...);
    HI_reset_status(fluxe, CPU, notstale);
    memcpyout(dens, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(dens) */
    memcpyout(ener, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(ener) */
    memcpyout(fluxe, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(fluxe) */
    memcpyout(momx, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(momx) */
    memcpyout(momy, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(momy) */
    cudaMalloc(&d_dens, sizeof(dens)); /* main_kernel6.alloc(dens) */
    memcpyin(dens, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(dens) */
    cudaMalloc(&d_dens_old, sizeof(dens_old)); /* main_kernel6.alloc(dens_old) */
    memcpyin(dens_old, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(dens_old) */
    cudaMalloc(&d_fluxd, sizeof(fluxd)); /* main_kernel6.alloc(fluxd) */
    memcpyin(fluxd, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(fluxd) */
    cudaMalloc(&d_sf, sizeof(sf)); /* main_kernel6.alloc(sf) */
    memcpyin(sf, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(sf) */
    HI_check_read(dens_old, GPU);
    HI_check_read(fluxd, GPU);
    HI_check_read(sf, GPU);
    HI_check_write(dens, GPU);
    kernel6<<<gangs, workers>>>(...);
    memcpyout(dens, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(dens) */
    memcpyout(dens_old, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(dens_old) */
    memcpyout(fluxd, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(fluxd) */
    memcpyout(sf, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(sf) */
    cudaMalloc(&d_fluxmx, sizeof(fluxmx)); /* main_kernel7.alloc(fluxmx) */
    memcpyin(fluxmx, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(fluxmx) */
    cudaMalloc(&d_fluxmy, sizeof(fluxmy)); /* main_kernel7.alloc(fluxmy) */
    memcpyin(fluxmy, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(fluxmy) */
    cudaMalloc(&d_momx, sizeof(momx)); /* main_kernel7.alloc(momx) */
    memcpyin(momx, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(momx) */
    cudaMalloc(&d_momx_old, sizeof(momx_old)); /* main_kernel7.alloc(momx_old) */
    memcpyin(momx_old, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(momx_old) */
    cudaMalloc(&d_momy, sizeof(momy)); /* main_kernel7.alloc(momy) */
    memcpyin(momy, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(momy) */
    cudaMalloc(&d_momy_old, sizeof(momy_old)); /* main_kernel7.alloc(momy_old) */
    memcpyin(momy_old, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(momy_old) */
    cudaMalloc(&d_sf, sizeof(sf)); /* main_kernel7.alloc(sf) */
    memcpyin(sf, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(sf) */
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
    memcpyout(fluxmx, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(fluxmx) */
    memcpyout(fluxmy, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(fluxmy) */
    memcpyout(momx, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(momx) */
    memcpyout(momx_old, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(momx_old) */
    memcpyout(momy, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(momy) */
    memcpyout(momy_old, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(momy_old) */
    memcpyout(sf, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(sf) */
    cudaMalloc(&d_ener, sizeof(ener)); /* main_kernel8.alloc(ener) */
    memcpyin(ener, cudaMemcpyHostToDevice); /* main_kernel8.pcopyin(ener) */
    cudaMalloc(&d_ener_old, sizeof(ener_old)); /* main_kernel8.alloc(ener_old) */
    memcpyin(ener_old, cudaMemcpyHostToDevice); /* main_kernel8.pcopyin(ener_old) */
    cudaMalloc(&d_fluxe, sizeof(fluxe)); /* main_kernel8.alloc(fluxe) */
    memcpyin(fluxe, cudaMemcpyHostToDevice); /* main_kernel8.pcopyin(fluxe) */
    cudaMalloc(&d_sf, sizeof(sf)); /* main_kernel8.alloc(sf) */
    memcpyin(sf, cudaMemcpyHostToDevice); /* main_kernel8.pcopyin(sf) */
    HI_check_read(ener_old, GPU);
    HI_check_read(fluxe, GPU);
    HI_check_read(sf, GPU);
    HI_check_write(ener, GPU);
    kernel8<<<gangs, workers>>>(...);
    memcpyout(ener, cudaMemcpyDeviceToHost); /* main_kernel8.pcopyout(ener) */
    memcpyout(ener_old, cudaMemcpyDeviceToHost); /* main_kernel8.pcopyout(ener_old) */
    memcpyout(fluxe, cudaMemcpyDeviceToHost); /* main_kernel8.pcopyout(fluxe) */
    memcpyout(sf, cudaMemcpyDeviceToHost); /* main_kernel8.pcopyout(sf) */
    memcpyout(ener, cudaMemcpyDeviceToHost); /* update0.host(ener) */
    HI_check_read(ener, CPU);
    if (verbose == 1) {
      for (int i = 0; i < n; i = i + 1) {
        vcheck = vcheck + ener[i];
      }
    }
  }
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

/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(double *m, int k, int n)
{
  double pv; /* unsynchronized shared (latent race) */
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from k + 1 */;
  if (j < n) {
    pv = m[k * n + k];
    m[k * n + j] = m[k * n + j] / (pv + 1.0);
  }
}

__global__ void main_kernel1(double *m, int k, int n)
{
  double f; /* unsynchronized shared (latent race) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from k + 1 */;
  if (i < n) {
    f = m[i * n + k] / (m[k * n + k] + 1.0);
    for (int j = k + 1; j < n; j = j + 1) {
      m[i * n + j] = m[i * n + j] - f * m[k * n + j];
    }
    m[i * n + k] = f;
  }
}

__global__ void main_kernel2(double *m, double *pc, double *pcold, double *pd, double *pdold, double *ps, double *psold, int k, int n)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    ps[i] = psold[i] + fabs(m[i * n + k]);
    pd[i] = pdold[i] + (i == k ? fabs(m[k * n + k]) : 0.0);
    pc[i] = pcold[i] + fabs(m[k * n + i]);
  }
}

int main()
{
  int n = 28;
  int steps = 8;
  float m[n * n];
  float sa[n];
  float sb[n];
  float da[n];
  float db[n];
  float ca[n];
  float cb[n];
  float *ps;
  float *psold;
  float *pd;
  float *pdold;
  float *pc;
  float *pcold;
  float *tmpp;
  float pv;
  float f;
  HI_check_write(m, CPU);
  for (int i = 0; i < n * n; i = i + 1) {
    m[i] = 1.0 + float(i * 13 % 17) * 0.125;
  }
  HI_check_write(ca, CPU);
  HI_check_write(cb, CPU);
  HI_check_write(da, CPU);
  HI_check_write(db, CPU);
  HI_check_write(sa, CPU);
  HI_check_write(sb, CPU);
  for (int i = 0; i < n; i = i + 1) {
    sa[i] = 0.0;
    sb[i] = 0.0;
    da[i] = 0.0;
    db[i] = 0.0;
    ca[i] = 0.0;
    cb[i] = 0.0;
  }
  ps = sa;
  psold = sb;
  pd = da;
  pdold = db;
  pc = ca;
  pcold = cb;
  for (intk = 0; k < steps; k = k + 1) {
    cudaMalloc(&d_m, sizeof(m)); /* main_kernel0.alloc(m) */
    memcpyin(m, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(m) */
    HI_check_read(m, GPU);
    HI_check_write(m, GPU);
    kernel0<<<gangs, workers>>>(...);
    memcpyout(m, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(m) */
    cudaMalloc(&d_m, sizeof(m)); /* main_kernel1.alloc(m) */
    memcpyin(m, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(m) */
    HI_check_read(m, GPU);
    HI_check_write(m, GPU);
    kernel1<<<gangs, workers>>>(...);
    memcpyout(m, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(m) */
    cudaMalloc(&d_ca, sizeof(ca)); /* main_kernel2.alloc(ca) */
    memcpyin(ca, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(ca) */
    cudaMalloc(&d_cb, sizeof(cb)); /* main_kernel2.alloc(cb) */
    memcpyin(cb, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(cb) */
    cudaMalloc(&d_da, sizeof(da)); /* main_kernel2.alloc(da) */
    memcpyin(da, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(da) */
    cudaMalloc(&d_db, sizeof(db)); /* main_kernel2.alloc(db) */
    memcpyin(db, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(db) */
    cudaMalloc(&d_m, sizeof(m)); /* main_kernel2.alloc(m) */
    memcpyin(m, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(m) */
    cudaMalloc(&d_sa, sizeof(sa)); /* main_kernel2.alloc(sa) */
    memcpyin(sa, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(sa) */
    cudaMalloc(&d_sb, sizeof(sb)); /* main_kernel2.alloc(sb) */
    memcpyin(sb, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(sb) */
    HI_check_read(ca, GPU);
    HI_check_read(cb, GPU);
    HI_check_read(da, GPU);
    HI_check_read(db, GPU);
    HI_check_read(m, GPU);
    HI_check_read(sa, GPU);
    HI_check_read(sb, GPU);
    HI_check_write(ca, GPU);
    HI_check_write(cb, GPU);
    HI_check_write(da, GPU);
    HI_check_write(db, GPU);
    HI_check_write(sa, GPU);
    HI_check_write(sb, GPU);
    kernel2<<<gangs, workers>>>(...);
    HI_reset_status(ca, CPU, maystale);
    HI_reset_status(cb, CPU, maystale);
    HI_reset_status(da, CPU, maystale);
    HI_reset_status(db, CPU, maystale);
    HI_reset_status(sa, CPU, maystale);
    HI_reset_status(sb, CPU, maystale);
    memcpyout(ca, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(ca) */
    memcpyout(cb, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(cb) */
    memcpyout(da, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(da) */
    memcpyout(db, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(db) */
    memcpyout(m, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(m) */
    memcpyout(sa, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(sa) */
    memcpyout(sb, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(sb) */
    tmpp = ps;
    ps = psold;
    psold = tmpp;
    tmpp = pd;
    pd = pdold;
    pdold = tmpp;
    tmpp = pc;
    pc = pcold;
    pcold = tmpp;
  }
  float lusum = 0.0;
  float ssum = 0.0;
  float dsum = 0.0;
  float csum = 0.0;
  HI_check_read(m, CPU);
  for (int i = 0; i < n * n; i = i + 1) {
    lusum = lusum + fabs(m[i]);
  }
  HI_check_read(pcold, CPU);
  HI_check_read(pdold, CPU);
  HI_check_read(psold, CPU);
  for (int i = 0; i < n; i = i + 1) {
    ssum = ssum + psold[i];
    dsum = dsum + pdold[i];
    csum = csum + pcold[i];
  }
  return 0;
}

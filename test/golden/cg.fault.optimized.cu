/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(double *p, double *q, double *r, double *x, double *z, int n)
{
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < n) {
    q[j] = 0.0;
    z[j] = 0.0;
    r[j] = x[j];
    p[j] = x[j];
  }
}

__global__ void main_kernel1(double *r, int n)
{
  double rho; /* UNSYNCHRONIZED SHARED (active race) */
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < n) {
    rho = rho + r[j] * r[j];
  }
}

__global__ void main_kernel2(double *aval, int *col, double *p, double *q, int *rowptr, int n)
{
  double t; /* unsynchronized shared (latent race) */
  int row = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (row < n) {
    t = 0.0;
    for (int k = rowptr[row]; k < rowptr[row + 1]; k = k + 1) {
      t = t + aval[k] * p[col[k]];
    }
    q[row] = t;
  }
}

__global__ void main_kernel3(double *p, double *q, int n)
{
  double d; /* UNSYNCHRONIZED SHARED (active race) */
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < n) {
    d = d + p[j] * q[j];
  }
}

__global__ void main_kernel4(double *p, double *q, double *r, double *z, double alpha, int n)
{
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < n) {
    z[j] = z[j] + alpha * p[j];
    r[j] = r[j] - alpha * q[j];
  }
}

__global__ void main_kernel5(double *p, double *r, double beta, int n)
{
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < n) {
    p[j] = r[j] + beta * p[j];
  }
}

__global__ void main_kernel6(double *aval, int *col, int *rowptr, double *w, double *z, int n)
{
  double t2; /* unsynchronized shared (latent race) */
  int row = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (row < n) {
    t2 = 0.0;
    for (int k = rowptr[row]; k < rowptr[row + 1]; k = k + 1) {
      t2 = t2 + aval[k] * z[col[k]];
    }
    w[row] = t2;
  }
}

__global__ void main_kernel7(double *w, double *x, int n)
{
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < n) {
    x[j] = 0.90000000000000002 * x[j] + 0.10000000000000001 * w[j];
  }
}

__global__ void main_kernel8(double *z, int n)
{
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < n) {
    z[j] = z[j] * 0.5;
  }
}

int main()
{
  int n = 256;
  int band = 2;
  int maxnnz = n * 5;
  int rowptr[n + 1];
  int col[maxnnz];
  float aval[maxnnz];
  float x[n];
  float z[n];
  float p[n];
  float q[n];
  float r[n];
  float w[n];
  float t;
  float t2;
  float rho = 0.0;
  float d = 0.0;
  float alpha = 0.0;
  float beta = 0.0;
  float rho0 = 0.0;
  int nnz = 0;
  HI_check_write(aval, CPU);
  HI_check_write(col, CPU);
  HI_check_write(rowptr, CPU);
  for (int row = 0; row < n; row = row + 1) {
    rowptr[row] = nnz;
    for (int c = row - band; c <= row + band; c = c + 1) {
      if (c >= 0 && c < n) {
        col[nnz] = c;
        aval[nnz] = row == c ? 4.0 : (-1.0) / (1.0 + float(abs(row - c)));
        nnz = nnz + 1;
      }
    }
  }
  rowptr[n] = nnz;
  HI_check_write(q, CPU);
  HI_check_write(x, CPU);
  for (int i = 0; i < n; i = i + 1) {
    x[i] = 1.0 + float(i % 3) * 0.10000000000000001;
    q[i] = 0.0;
  }
  HI_reset_status(q, GPU, notstale);
  for (intit = 0; it < 3; it = it + 1) {
    cudaMalloc(&d_p, sizeof(p)); /* main_kernel0.alloc(p) */
    memcpyin(p, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(p) */
    cudaMalloc(&d_q, sizeof(q)); /* main_kernel0.alloc(q) */
    memcpyin(q, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(q) */
    cudaMalloc(&d_r, sizeof(r)); /* main_kernel0.alloc(r) */
    memcpyin(r, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(r) */
    cudaMalloc(&d_x, sizeof(x)); /* main_kernel0.alloc(x) */
    memcpyin(x, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(x) */
    cudaMalloc(&d_z, sizeof(z)); /* main_kernel0.alloc(z) */
    memcpyin(z, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(z) */
    HI_check_read(x, GPU);
    HI_check_write(p, GPU);
    HI_check_write(q, GPU);
    HI_check_write(r, GPU);
    HI_check_write(z, GPU);
    kernel0<<<gangs, workers>>>(...);
    HI_reset_status(p, CPU, notstale);
    HI_reset_status(q, CPU, notstale);
    HI_reset_status(z, CPU, notstale);
    memcpyout(p, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(p) */
    memcpyout(q, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(q) */
    memcpyout(r, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(r) */
    memcpyout(x, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(x) */
    memcpyout(z, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(z) */
    rho = 0.0;
    cudaMalloc(&d_r, sizeof(r)); /* main_kernel1.alloc(r) */
    memcpyin(r, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(r) */
    HI_check_read(r, GPU);
    kernel1<<<gangs, workers>>>(...);
    memcpyout(r, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(r) */
    for (intcgit = 0; cgit < 4; cgit = cgit + 1) {
      cudaMalloc(&d_aval, sizeof(aval)); /* main_kernel2.alloc(aval) */
      memcpyin(aval, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(aval) */
      cudaMalloc(&d_col, sizeof(col)); /* main_kernel2.alloc(col) */
      memcpyin(col, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(col) */
      cudaMalloc(&d_p, sizeof(p)); /* main_kernel2.alloc(p) */
      memcpyin(p, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(p) */
      cudaMalloc(&d_q, sizeof(q)); /* main_kernel2.alloc(q) */
      memcpyin(q, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(q) */
      cudaMalloc(&d_rowptr, sizeof(rowptr)); /* main_kernel2.alloc(rowptr) */
      memcpyin(rowptr, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(rowptr) */
      HI_check_read(aval, GPU);
      HI_check_read(col, GPU);
      HI_check_read(p, GPU);
      HI_check_read(rowptr, GPU);
      HI_check_write(q, GPU);
      kernel2<<<gangs, workers>>>(...);
      HI_reset_status(q, CPU, notstale);
      memcpyout(aval, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(aval) */
      memcpyout(col, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(col) */
      memcpyout(p, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(p) */
      memcpyout(q, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(q) */
      memcpyout(rowptr, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(rowptr) */
      d = 0.0;
      cudaMalloc(&d_p, sizeof(p)); /* main_kernel3.alloc(p) */
      memcpyin(p, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(p) */
      cudaMalloc(&d_q, sizeof(q)); /* main_kernel3.alloc(q) */
      memcpyin(q, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(q) */
      HI_check_read(p, GPU);
      HI_check_read(q, GPU);
      kernel3<<<gangs, workers>>>(...);
      memcpyout(p, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(p) */
      memcpyout(q, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(q) */
      alpha = rho / d;
      rho0 = rho;
      cudaMalloc(&d_p, sizeof(p)); /* main_kernel4.alloc(p) */
      memcpyin(p, cudaMemcpyHostToDevice); /* main_kernel4.pcopyin(p) */
      cudaMalloc(&d_q, sizeof(q)); /* main_kernel4.alloc(q) */
      memcpyin(q, cudaMemcpyHostToDevice); /* main_kernel4.pcopyin(q) */
      cudaMalloc(&d_r, sizeof(r)); /* main_kernel4.alloc(r) */
      memcpyin(r, cudaMemcpyHostToDevice); /* main_kernel4.pcopyin(r) */
      cudaMalloc(&d_z, sizeof(z)); /* main_kernel4.alloc(z) */
      memcpyin(z, cudaMemcpyHostToDevice); /* main_kernel4.pcopyin(z) */
      HI_check_read(p, GPU);
      HI_check_read(q, GPU);
      HI_check_read(r, GPU);
      HI_check_read(z, GPU);
      HI_check_write(r, GPU);
      HI_check_write(z, GPU);
      kernel4<<<gangs, workers>>>(...);
      HI_reset_status(z, CPU, notstale);
      memcpyout(p, cudaMemcpyDeviceToHost); /* main_kernel4.pcopyout(p) */
      memcpyout(q, cudaMemcpyDeviceToHost); /* main_kernel4.pcopyout(q) */
      memcpyout(r, cudaMemcpyDeviceToHost); /* main_kernel4.pcopyout(r) */
      memcpyout(z, cudaMemcpyDeviceToHost); /* main_kernel4.pcopyout(z) */
      memcpyout(r, cudaMemcpyDeviceToHost); /* update0.host(r) */
      rho = 0.0;
      HI_check_read(r, CPU);
      for (int j = 0; j < n; j = j + 1) {
        rho = rho + r[j] * r[j];
      }
      beta = rho / rho0;
      cudaMalloc(&d_p, sizeof(p)); /* main_kernel5.alloc(p) */
      memcpyin(p, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(p) */
      cudaMalloc(&d_r, sizeof(r)); /* main_kernel5.alloc(r) */
      memcpyin(r, cudaMemcpyHostToDevice); /* main_kernel5.pcopyin(r) */
      HI_check_read(p, GPU);
      HI_check_read(r, GPU);
      HI_check_write(p, GPU);
      kernel5<<<gangs, workers>>>(...);
      HI_reset_status(p, CPU, notstale);
      memcpyout(p, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(p) */
      memcpyout(r, cudaMemcpyDeviceToHost); /* main_kernel5.pcopyout(r) */
    }
    cudaMalloc(&d_aval, sizeof(aval)); /* main_kernel6.alloc(aval) */
    memcpyin(aval, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(aval) */
    cudaMalloc(&d_col, sizeof(col)); /* main_kernel6.alloc(col) */
    memcpyin(col, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(col) */
    cudaMalloc(&d_rowptr, sizeof(rowptr)); /* main_kernel6.alloc(rowptr) */
    memcpyin(rowptr, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(rowptr) */
    cudaMalloc(&d_w, sizeof(w)); /* main_kernel6.alloc(w) */
    memcpyin(w, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(w) */
    cudaMalloc(&d_z, sizeof(z)); /* main_kernel6.alloc(z) */
    memcpyin(z, cudaMemcpyHostToDevice); /* main_kernel6.pcopyin(z) */
    HI_check_read(aval, GPU);
    HI_check_read(col, GPU);
    HI_check_read(rowptr, GPU);
    HI_check_read(z, GPU);
    HI_check_write(w, GPU);
    kernel6<<<gangs, workers>>>(...);
    HI_reset_status(w, CPU, notstale);
    memcpyout(aval, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(aval) */
    memcpyout(col, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(col) */
    memcpyout(rowptr, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(rowptr) */
    memcpyout(w, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(w) */
    memcpyout(z, cudaMemcpyDeviceToHost); /* main_kernel6.pcopyout(z) */
    cudaMalloc(&d_w, sizeof(w)); /* main_kernel7.alloc(w) */
    memcpyin(w, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(w) */
    cudaMalloc(&d_x, sizeof(x)); /* main_kernel7.alloc(x) */
    memcpyin(x, cudaMemcpyHostToDevice); /* main_kernel7.pcopyin(x) */
    HI_check_read(w, GPU);
    HI_check_read(x, GPU);
    HI_check_write(x, GPU);
    kernel7<<<gangs, workers>>>(...);
    memcpyout(w, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(w) */
    memcpyout(x, cudaMemcpyDeviceToHost); /* main_kernel7.pcopyout(x) */
    cudaMalloc(&d_z, sizeof(z)); /* main_kernel8.alloc(z) */
    memcpyin(z, cudaMemcpyHostToDevice); /* main_kernel8.pcopyin(z) */
    HI_check_read(z, GPU);
    HI_check_write(z, GPU);
    kernel8<<<gangs, workers>>>(...);
    HI_reset_status(z, CPU, notstale);
    memcpyout(z, cudaMemcpyDeviceToHost); /* main_kernel8.pcopyout(z) */
  }
  float xnorm = 0.0;
  HI_check_read(x, CPU);
  for (int i = 0; i < n; i = i + 1) {
    xnorm = xnorm + x[i] * x[i];
  }
  return 0;
}

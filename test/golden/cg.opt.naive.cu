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
  double rho; /* reduction(+) */
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < n) {
    rho = rho + r[j] * r[j];
  }
}

__global__ void main_kernel2(double *aval, int *col, double *p, double *q, int *rowptr, int n)
{
  double t; /* private (per-thread register) */
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
  double d; /* reduction(+) */
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
  double t2; /* private (per-thread register) */
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
  HI_check_write(rowptr, CPU);
  rowptr[n] = nnz;
  HI_check_write(q, CPU);
  HI_check_write(x, CPU);
  for (int i = 0; i < n; i = i + 1) {
    x[i] = 1.0 + float(i % 3) * 0.10000000000000001;
    q[i] = 0.0;
  }
  HI_reset_status(q, GPU, notstale);
  cudaMalloc(&d_rowptr, sizeof(rowptr)); /* data133.alloc(rowptr) */
  memcpyin(rowptr, cudaMemcpyHostToDevice); /* data133.copyin(rowptr) */
  cudaMalloc(&d_col, sizeof(col)); /* data133.alloc(col) */
  memcpyin(col, cudaMemcpyHostToDevice); /* data133.copyin(col) */
  cudaMalloc(&d_aval, sizeof(aval)); /* data133.alloc(aval) */
  memcpyin(aval, cudaMemcpyHostToDevice); /* data133.copyin(aval) */
  cudaMalloc(&d_x, sizeof(x)); /* data133.alloc(x) */
  memcpyin(x, cudaMemcpyHostToDevice); /* data133.copy(x) */
  cudaMalloc(&d_q, sizeof(q)); /* data133.alloc(q) */
  cudaMalloc(&d_z, sizeof(z)); /* data133.alloc(z) */
  cudaMalloc(&d_p, sizeof(p)); /* data133.alloc(p) */
  cudaMalloc(&d_w, sizeof(w)); /* data133.alloc(w) */
  cudaMalloc(&d_r, sizeof(r)); /* data133.alloc(r) */
  {
    for (intit = 0; it < 3; it = it + 1) {
      HI_check_read(x, GPU);
      HI_check_write(p, GPU);
      HI_check_write(q, GPU);
      HI_check_write(r, GPU);
      HI_check_write(z, GPU);
      kernel0<<<gangs, workers>>>(...);
      HI_reset_status(p, CPU, notstale);
      HI_reset_status(q, CPU, notstale);
      HI_reset_status(z, CPU, notstale);
      rho = 0.0;
      HI_check_read(r, GPU);
      kernel1<<<gangs, workers>>>(...);
      for (intcgit = 0; cgit < 4; cgit = cgit + 1) {
        HI_check_read(aval, GPU);
        HI_check_read(col, GPU);
        HI_check_read(p, GPU);
        HI_check_read(rowptr, GPU);
        HI_check_write(q, GPU);
        kernel2<<<gangs, workers>>>(...);
        HI_reset_status(q, CPU, notstale);
        d = 0.0;
        HI_check_read(p, GPU);
        HI_check_read(q, GPU);
        kernel3<<<gangs, workers>>>(...);
        alpha = rho / d;
        rho0 = rho;
        HI_check_read(p, GPU);
        HI_check_read(q, GPU);
        HI_check_read(r, GPU);
        HI_check_read(z, GPU);
        HI_check_write(r, GPU);
        HI_check_write(z, GPU);
        kernel4<<<gangs, workers>>>(...);
        HI_reset_status(z, CPU, notstale);
        memcpyout(r, cudaMemcpyDeviceToHost); /* update0.host(r) */
        rho = 0.0;
        HI_check_read(r, CPU);
        for (int j = 0; j < n; j = j + 1) {
          rho = rho + r[j] * r[j];
        }
        beta = rho / rho0;
        HI_check_read(p, GPU);
        HI_check_read(r, GPU);
        HI_check_write(p, GPU);
        kernel5<<<gangs, workers>>>(...);
        HI_reset_status(p, CPU, notstale);
      }
      HI_check_read(aval, GPU);
      HI_check_read(col, GPU);
      HI_check_read(rowptr, GPU);
      HI_check_read(z, GPU);
      HI_check_write(w, GPU);
      kernel6<<<gangs, workers>>>(...);
      HI_reset_status(w, CPU, notstale);
      HI_check_read(w, GPU);
      HI_check_read(x, GPU);
      HI_check_write(x, GPU);
      kernel7<<<gangs, workers>>>(...);
      HI_check_read(z, GPU);
      HI_check_write(z, GPU);
      kernel8<<<gangs, workers>>>(...);
      HI_reset_status(z, CPU, notstale);
    }
  }
  cudaFree(d_rowptr); /* data133.free(rowptr) */
  cudaFree(d_col); /* data133.free(col) */
  cudaFree(d_aval); /* data133.free(aval) */
  memcpyout(x, cudaMemcpyDeviceToHost); /* data133.copyout(x) */
  cudaFree(d_x); /* data133.free(x) */
  cudaFree(d_q); /* data133.free(q) */
  cudaFree(d_z); /* data133.free(z) */
  cudaFree(d_p); /* data133.free(p) */
  cudaFree(d_w); /* data133.free(w) */
  cudaFree(d_r); /* data133.free(r) */
  float xnorm = 0.0;
  HI_check_read(x, CPU);
  for (int i = 0; i < n; i = i + 1) {
    xnorm = xnorm + x[i] * x[i];
  }
  return 0;
}

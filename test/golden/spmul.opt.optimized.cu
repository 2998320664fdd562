/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(int *col, int *rowptr, double *val, double *x, double *y, int nr)
{
  double t; /* private (per-thread register) */
  int r = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (r < nr) {
    t = 0.0;
    for (int j = rowptr[r]; j < rowptr[r + 1]; j = j + 1) {
      t = t + val[j] * x[col[j]];
    }
    y[r] = t;
  }
}

__global__ void main_kernel1(double *x, double *y, int nr)
{
  int r = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (r < nr) {
    x[r] = y[r] * 0.20000000000000001;
  }
}

int main()
{
  int nr = 512;
  int band = 2;
  int maxnnz = nr * 5;
  int rowptr[nr + 1];
  int col[maxnnz];
  float val[maxnnz];
  float x[nr];
  float y[nr];
  float t;
  int nnz = 0;
  HI_check_write(col, CPU);
  HI_check_write(rowptr, CPU);
  HI_check_write(val, CPU);
  for (int r = 0; r < nr; r = r + 1) {
    rowptr[r] = nnz;
    for (int c = r - band; c <= r + band; c = c + 1) {
      if (c >= 0 && c < nr) {
        col[nnz] = c;
        val[nnz] = 1.0 / (1.0 + float(abs(r - c)));
        nnz = nnz + 1;
      }
    }
  }
  rowptr[nr] = nnz;
  HI_check_write(x, CPU);
  for (int i = 0; i < nr; i = i + 1) {
    x[i] = 1.0 + float(i % 5) * 0.10000000000000001;
  }
  cudaMalloc(&d_rowptr, sizeof(rowptr)); /* data54.alloc(rowptr) */
  memcpyin(rowptr, cudaMemcpyHostToDevice); /* data54.copyin(rowptr) */
  cudaMalloc(&d_col, sizeof(col)); /* data54.alloc(col) */
  memcpyin(col, cudaMemcpyHostToDevice); /* data54.copyin(col) */
  cudaMalloc(&d_val, sizeof(val)); /* data54.alloc(val) */
  memcpyin(val, cudaMemcpyHostToDevice); /* data54.copyin(val) */
  cudaMalloc(&d_x, sizeof(x)); /* data54.alloc(x) */
  memcpyin(x, cudaMemcpyHostToDevice); /* data54.copy(x) */
  cudaMalloc(&d_y, sizeof(y)); /* data54.alloc(y) */
  {
    HI_check_read(col, GPU);
    HI_check_read(rowptr, GPU);
    HI_check_read(val, GPU);
    HI_check_read(x, GPU);
    HI_check_write(y, GPU);
    HI_check_read(y, GPU);
    HI_check_write(x, GPU);
    for (intit = 0; it < 8; it = it + 1) {
      kernel0<<<gangs, workers>>>(...);
      HI_reset_status(y, CPU, notstale);
      kernel1<<<gangs, workers>>>(...);
    }
  }
  cudaFree(d_rowptr); /* data54.free(rowptr) */
  cudaFree(d_col); /* data54.free(col) */
  cudaFree(d_val); /* data54.free(val) */
  memcpyout(x, cudaMemcpyDeviceToHost); /* data54.copyout(x) */
  cudaFree(d_x); /* data54.free(x) */
  cudaFree(d_y); /* data54.free(y) */
  float norm = 0.0;
  HI_check_read(x, CPU);
  for (int i = 0; i < nr; i = i + 1) {
    norm = norm + x[i] * x[i];
  }
  return 0;
}

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
  HI_check_write(rowptr, CPU);
  rowptr[nr] = nnz;
  HI_check_write(x, CPU);
  for (int i = 0; i < nr; i = i + 1) {
    x[i] = 1.0 + float(i % 5) * 0.10000000000000001;
  }
  for (intit = 0; it < 8; it = it + 1) {
    cudaMalloc(&d_col, sizeof(col)); /* main_kernel0.alloc(col) */
    memcpyin(col, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(col) */
    cudaMalloc(&d_rowptr, sizeof(rowptr)); /* main_kernel0.alloc(rowptr) */
    memcpyin(rowptr, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(rowptr) */
    cudaMalloc(&d_val, sizeof(val)); /* main_kernel0.alloc(val) */
    memcpyin(val, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(val) */
    cudaMalloc(&d_x, sizeof(x)); /* main_kernel0.alloc(x) */
    memcpyin(x, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(x) */
    cudaMalloc(&d_y, sizeof(y)); /* main_kernel0.alloc(y) */
    memcpyin(y, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(y) */
    HI_check_read(col, GPU);
    HI_check_read(rowptr, GPU);
    HI_check_read(val, GPU);
    HI_check_read(x, GPU);
    HI_check_write(y, GPU);
    kernel0<<<gangs, workers>>>(...);
    HI_reset_status(y, CPU, notstale);
    memcpyout(col, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(col) */
    memcpyout(rowptr, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(rowptr) */
    memcpyout(val, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(val) */
    memcpyout(x, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(x) */
    memcpyout(y, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(y) */
    cudaMalloc(&d_x, sizeof(x)); /* main_kernel1.alloc(x) */
    memcpyin(x, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(x) */
    cudaMalloc(&d_y, sizeof(y)); /* main_kernel1.alloc(y) */
    memcpyin(y, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(y) */
    HI_check_read(y, GPU);
    HI_check_write(x, GPU);
    kernel1<<<gangs, workers>>>(...);
    memcpyout(x, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(x) */
    memcpyout(y, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(y) */
  }
  float norm = 0.0;
  HI_check_read(x, CPU);
  for (int i = 0; i < nr; i = i + 1) {
    norm = norm + x[i] * x[i];
  }
  return 0;
}

/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(double *a, double *b, int n)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 1 */;
  if (i < n - 1) {
    b[i] = 0.5 * (a[i - 1] + a[i + 1]);
  }
}

__global__ void main_kernel1(double *a, double *b, int n)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 1 */;
  if (i < n - 1) {
    a[i] = b[i];
  }
}

int main()
{
  int n = 1024;
  int iters = 20;
  float a[n];
  float b[n];
  HI_check_write(a, CPU);
  HI_check_write(b, CPU);
  for (int i = 0; i < n; i = i + 1) {
    a[i] = float(i % 13) * 0.25 + 1.0;
    b[i] = 0.0;
  }
  HI_reset_status(b, GPU, notstale);
  for (intk = 0; k < iters; k = k + 1) {
    cudaMalloc(&d_a, sizeof(a)); /* main_kernel0.alloc(a) */
    memcpyin(a, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(a) */
    cudaMalloc(&d_b, sizeof(b)); /* main_kernel0.alloc(b) */
    memcpyin(b, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(b) */
    HI_check_read(a, GPU);
    HI_check_write(b, GPU);
    kernel0<<<gangs, workers>>>(...);
    memcpyout(a, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(a) */
    memcpyout(b, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(b) */
    cudaMalloc(&d_a, sizeof(a)); /* main_kernel1.alloc(a) */
    memcpyin(a, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(a) */
    cudaMalloc(&d_b, sizeof(b)); /* main_kernel1.alloc(b) */
    memcpyin(b, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(b) */
    HI_check_read(b, GPU);
    HI_check_write(a, GPU);
    kernel1<<<gangs, workers>>>(...);
    memcpyout(a, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(a) */
    memcpyout(b, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(b) */
    memcpyout(b, cudaMemcpyDeviceToHost); /* update0.host(b) */
  }
  float resid = 0.0;
  HI_check_read(a, CPU);
  HI_check_read(b, CPU);
  for (int i = 0; i < n; i = i + 1) {
    resid = resid + fabs(b[i] - a[i]);
  }
  return 0;
}

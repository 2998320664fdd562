/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(int *seeds, int n)
{
  int s; /* private (per-thread register) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    s = (i * 2531011 + 331) % 65536;
    s = (s * 1103 + 12345) % 65536;
    seeds[i] = s;
  }
}

__global__ void main_kernel1(int *seeds, int n)
{
  double acc1; /* reduction(+) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < n) {
    acc1 = acc1 + float((seeds[i] * 214013 + 2531011) % 10007) * 0.0001;
  }
}

int main()
{
  int n = 4096;
  int seeds[n];
  int s;
  float acc1 = 0.0;
  cudaMalloc(&d_seeds, sizeof(seeds)); /* data20.alloc(seeds) */
  {
    HI_check_write(seeds, GPU);
    kernel0<<<gangs, workers>>>(...);
    HI_reset_status(seeds, CPU, notstale);
    HI_check_read(seeds, GPU);
    kernel1<<<gangs, workers>>>(...);
  }
  cudaFree(d_seeds); /* data20.free(seeds) */
  float result = acc1 / float(n);
  return 0;
}

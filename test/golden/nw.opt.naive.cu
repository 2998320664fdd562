/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(int *seq1, int *seq2, double *sm, int d)
{
  double t; /* private (per-thread register) */
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 1 */;
  if (i < d) {
    t = sm[i - 1][d - i - 1] + (seq1[i - 1] == seq2[d - i - 1] ? 2.0 : 0.0 - 1.0);
    t = max(t, sm[i - 1][d - i] - 1.0);
    t = max(t, sm[i][d - i - 1] - 1.0);
    sm[i][d - i] = t;
  }
}

__global__ void main_kernel1(int *seq1, int *seq2, double *sm, int d, int n)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from d - n */;
  if (i <= n) {
    sm[i][d - i] = max(max(sm[i - 1][d - i - 1] + (seq1[i - 1] == seq2[d - i - 1] ? 2.0 : 0.0 - 1.0), sm[i - 1][d - i] - 1.0), sm[i][d - i - 1] - 1.0);
  }
}

int main()
{
  int n = 48;
  int w = n + 1;
  float sm[w][w];
  int seq1[n];
  int seq2[n];
  float t;
  HI_check_write(seq1, CPU);
  HI_check_write(seq2, CPU);
  for (int i = 0; i < n; i = i + 1) {
    seq1[i] = (i * 7 + 3) % 4;
    seq2[i] = (i * 11 + 1) % 4;
  }
  HI_check_write(sm, CPU);
  for (int i = 0; i < w; i = i + 1) {
    for (int j = 0; j < w; j = j + 1) {
      sm[i][j] = 0.0;
    }
  }
  HI_check_write(sm, CPU);
  for (int i = 0; i < w; i = i + 1) {
    sm[i][0] = 0.0 - float(i);
    sm[0][i] = 0.0 - float(i);
  }
  cudaMalloc(&d_sm, sizeof(sm)); /* data52.alloc(sm) */
  memcpyin(sm, cudaMemcpyHostToDevice); /* data52.copy(sm) */
  cudaMalloc(&d_seq1, sizeof(seq1)); /* data52.alloc(seq1) */
  memcpyin(seq1, cudaMemcpyHostToDevice); /* data52.copyin(seq1) */
  cudaMalloc(&d_seq2, sizeof(seq2)); /* data52.alloc(seq2) */
  memcpyin(seq2, cudaMemcpyHostToDevice); /* data52.copyin(seq2) */
  {
    for (intd = 2; d <= n; d = d + 1) {
      HI_check_read(seq1, GPU);
      HI_check_read(seq2, GPU);
      HI_check_read(sm, GPU);
      HI_check_write(sm, GPU);
      kernel0<<<gangs, workers>>>(...);
    }
    for (intd = n + 1; d <= 2 * n; d = d + 1) {
      HI_check_read(seq1, GPU);
      HI_check_read(seq2, GPU);
      HI_check_read(sm, GPU);
      HI_check_write(sm, GPU);
      kernel1<<<gangs, workers>>>(...);
    }
  }
  memcpyout(sm, cudaMemcpyDeviceToHost); /* data52.copyout(sm) */
  cudaFree(d_sm); /* data52.free(sm) */
  cudaFree(d_seq1); /* data52.free(seq1) */
  cudaFree(d_seq2); /* data52.free(seq2) */
  HI_check_read(sm, CPU);
  float score = sm[n][n];
  return 0;
}

/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(double *hidden, double *input, double *w1, int nh, int ni)
{
  double sumv; /* private (per-thread register) */
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < nh) {
    sumv = 0.0;
    for (int i = 0; i < ni; i = i + 1) {
      sumv = sumv + input[i] * w1[i * nh + j];
    }
    hidden[j] = 1.0 / (1.0 + exp(0.0 - sumv));
  }
}

__global__ void main_kernel1(double *hidden, double *output, double *w2, int nh, int no)
{
  double sumo; /* private (per-thread register) */
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < no) {
    sumo = 0.0;
    for (int i = 0; i < nh; i = i + 1) {
      sumo = sumo + hidden[i] * w2[i * no + j];
    }
    output[j] = 1.0 / (1.0 + exp(0.0 - sumo));
  }
}

__global__ void main_kernel2(double *delta, double *output, double *target, int no)
{
  double err; /* reduction(+) */
  int j = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (j < no) {
    delta[j] = (target[j] - output[j]) * output[j] * (1.0 - output[j]);
    err = err + fabs(target[j] - output[j]);
  }
}

__global__ void main_kernel3(double *delta, double *hidden, double *w2, double *w2prev, double lr, int nh, int no)
{
  int i = (blockIdx.x * blockDim.x + threadIdx.x) /* from 0 */;
  if (i < nh) {
    for (int j = 0; j < no; j = j + 1) {
      w2prev[i * no + j] = w2[i * no + j] + lr * delta[j] * hidden[i];
    }
  }
}

int main()
{
  int ni = 32;
  int nh = 16;
  int no = 8;
  int epochs = 6;
  float input[ni];
  float hidden[nh];
  float output[no];
  float target[no];
  float delta[no];
  float w1[ni * nh];
  float w2a[nh * no];
  float w2b[nh * no];
  float *w2;
  float *w2prev;
  float *tmpp;
  float sumv;
  float sumo;
  float err = 0.0;
  float lr = 0.050000000000000003;
  HI_check_write(input, CPU);
  for (int i = 0; i < ni; i = i + 1) {
    input[i] = 0.10000000000000001 * float(i % 10);
  }
  HI_check_write(target, CPU);
  for (int j = 0; j < no; j = j + 1) {
    target[j] = 0.5 + 0.050000000000000003 * float(j);
  }
  HI_check_write(w1, CPU);
  for (int i = 0; i < ni * nh; i = i + 1) {
    w1[i] = 0.01 * float(i % 13);
  }
  HI_check_write(w2a, CPU);
  HI_check_write(w2b, CPU);
  for (int i = 0; i < nh * no; i = i + 1) {
    w2a[i] = 0.02 * float(i % 7);
    w2b[i] = 0.02 * float(i % 7);
  }
  w2 = w2a;
  w2prev = w2b;
  cudaMalloc(&d_input, sizeof(input)); /* data93.alloc(input) */
  memcpyin(input, cudaMemcpyHostToDevice); /* data93.copyin(input) */
  cudaMalloc(&d_target, sizeof(target)); /* data93.alloc(target) */
  memcpyin(target, cudaMemcpyHostToDevice); /* data93.copyin(target) */
  cudaMalloc(&d_w1, sizeof(w1)); /* data93.alloc(w1) */
  memcpyin(w1, cudaMemcpyHostToDevice); /* data93.copyin(w1) */
  cudaMalloc(&d_w2a, sizeof(w2a)); /* data93.alloc(w2a) */
  memcpyin(w2a, cudaMemcpyHostToDevice); /* data93.copy(w2a) */
  cudaMalloc(&d_w2b, sizeof(w2b)); /* data93.alloc(w2b) */
  memcpyin(w2b, cudaMemcpyHostToDevice); /* data93.copy(w2b) */
  cudaMalloc(&d_hidden, sizeof(hidden)); /* data93.alloc(hidden) */
  cudaMalloc(&d_output, sizeof(output)); /* data93.alloc(output) */
  cudaMalloc(&d_delta, sizeof(delta)); /* data93.alloc(delta) */
  {
    HI_check_read(input, GPU);
    HI_check_read(w1, GPU);
    HI_check_write(hidden, GPU);
    HI_check_read(hidden, GPU);
    HI_check_read(w2a, GPU);
    HI_check_read(w2b, GPU);
    HI_check_write(output, GPU);
    HI_check_read(output, GPU);
    HI_check_read(target, GPU);
    HI_check_write(delta, GPU);
    HI_check_read(delta, GPU);
    HI_check_write(w2a, GPU);
    HI_check_write(w2b, GPU);
    for (inte = 0; e < epochs; e = e + 1) {
      kernel0<<<gangs, workers>>>(...);
      HI_reset_status(hidden, CPU, notstale);
      kernel1<<<gangs, workers>>>(...);
      HI_reset_status(output, CPU, notstale);
      err = 0.0;
      kernel2<<<gangs, workers>>>(...);
      HI_reset_status(delta, CPU, notstale);
      kernel3<<<gangs, workers>>>(...);
      HI_reset_status(w2a, CPU, maystale);
      HI_reset_status(w2b, CPU, maystale);
      tmpp = w2;
      w2 = w2prev;
      w2prev = tmpp;
    }
  }
  cudaFree(d_input); /* data93.free(input) */
  cudaFree(d_target); /* data93.free(target) */
  cudaFree(d_w1); /* data93.free(w1) */
  memcpyout(w2a, cudaMemcpyDeviceToHost); /* data93.copyout(w2a) */
  cudaFree(d_w2a); /* data93.free(w2a) */
  memcpyout(w2b, cudaMemcpyDeviceToHost); /* data93.copyout(w2b) */
  cudaFree(d_w2b); /* data93.free(w2b) */
  cudaFree(d_hidden); /* data93.free(hidden) */
  cudaFree(d_output); /* data93.free(output) */
  cudaFree(d_delta); /* data93.free(delta) */
  float checksum = 0.0;
  HI_check_read(w2, CPU);
  for (int i = 0; i < nh * no; i = i + 1) {
    checksum = checksum + w2[i];
  }
  return 0;
}

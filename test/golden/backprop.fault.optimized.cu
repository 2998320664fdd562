/* OpenARC output (CUDA rendering) */

__global__ void main_kernel0(double *hidden, double *input, double *w1, int nh, int ni)
{
  double sumv; /* unsynchronized shared (latent race) */
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
  double sumo; /* unsynchronized shared (latent race) */
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
  double err; /* UNSYNCHRONIZED SHARED (active race) */
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
  for (inte = 0; e < epochs; e = e + 1) {
    cudaMalloc(&d_hidden, sizeof(hidden)); /* main_kernel0.alloc(hidden) */
    memcpyin(hidden, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(hidden) */
    cudaMalloc(&d_input, sizeof(input)); /* main_kernel0.alloc(input) */
    memcpyin(input, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(input) */
    cudaMalloc(&d_w1, sizeof(w1)); /* main_kernel0.alloc(w1) */
    memcpyin(w1, cudaMemcpyHostToDevice); /* main_kernel0.pcopyin(w1) */
    HI_check_read(input, GPU);
    HI_check_read(w1, GPU);
    HI_check_write(hidden, GPU);
    kernel0<<<gangs, workers>>>(...);
    HI_reset_status(hidden, CPU, notstale);
    memcpyout(hidden, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(hidden) */
    memcpyout(input, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(input) */
    memcpyout(w1, cudaMemcpyDeviceToHost); /* main_kernel0.pcopyout(w1) */
    cudaMalloc(&d_hidden, sizeof(hidden)); /* main_kernel1.alloc(hidden) */
    memcpyin(hidden, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(hidden) */
    cudaMalloc(&d_output, sizeof(output)); /* main_kernel1.alloc(output) */
    memcpyin(output, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(output) */
    cudaMalloc(&d_w2a, sizeof(w2a)); /* main_kernel1.alloc(w2a) */
    memcpyin(w2a, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(w2a) */
    cudaMalloc(&d_w2b, sizeof(w2b)); /* main_kernel1.alloc(w2b) */
    memcpyin(w2b, cudaMemcpyHostToDevice); /* main_kernel1.pcopyin(w2b) */
    HI_check_read(hidden, GPU);
    HI_check_read(w2a, GPU);
    HI_check_read(w2b, GPU);
    HI_check_write(output, GPU);
    kernel1<<<gangs, workers>>>(...);
    HI_reset_status(output, CPU, notstale);
    memcpyout(hidden, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(hidden) */
    memcpyout(output, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(output) */
    memcpyout(w2a, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(w2a) */
    memcpyout(w2b, cudaMemcpyDeviceToHost); /* main_kernel1.pcopyout(w2b) */
    err = 0.0;
    cudaMalloc(&d_delta, sizeof(delta)); /* main_kernel2.alloc(delta) */
    memcpyin(delta, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(delta) */
    cudaMalloc(&d_output, sizeof(output)); /* main_kernel2.alloc(output) */
    memcpyin(output, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(output) */
    cudaMalloc(&d_target, sizeof(target)); /* main_kernel2.alloc(target) */
    memcpyin(target, cudaMemcpyHostToDevice); /* main_kernel2.pcopyin(target) */
    HI_check_read(output, GPU);
    HI_check_read(target, GPU);
    HI_check_write(delta, GPU);
    kernel2<<<gangs, workers>>>(...);
    HI_reset_status(delta, CPU, notstale);
    memcpyout(delta, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(delta) */
    memcpyout(output, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(output) */
    memcpyout(target, cudaMemcpyDeviceToHost); /* main_kernel2.pcopyout(target) */
    cudaMalloc(&d_delta, sizeof(delta)); /* main_kernel3.alloc(delta) */
    memcpyin(delta, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(delta) */
    cudaMalloc(&d_hidden, sizeof(hidden)); /* main_kernel3.alloc(hidden) */
    memcpyin(hidden, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(hidden) */
    cudaMalloc(&d_w2a, sizeof(w2a)); /* main_kernel3.alloc(w2a) */
    memcpyin(w2a, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(w2a) */
    cudaMalloc(&d_w2b, sizeof(w2b)); /* main_kernel3.alloc(w2b) */
    memcpyin(w2b, cudaMemcpyHostToDevice); /* main_kernel3.pcopyin(w2b) */
    HI_check_read(delta, GPU);
    HI_check_read(hidden, GPU);
    HI_check_read(w2a, GPU);
    HI_check_read(w2b, GPU);
    HI_check_write(w2a, GPU);
    HI_check_write(w2b, GPU);
    kernel3<<<gangs, workers>>>(...);
    HI_reset_status(w2a, CPU, maystale);
    HI_reset_status(w2b, CPU, maystale);
    memcpyout(delta, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(delta) */
    memcpyout(hidden, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(hidden) */
    memcpyout(w2a, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(w2a) */
    memcpyout(w2b, cudaMemcpyDeviceToHost); /* main_kernel3.pcopyout(w2b) */
    tmpp = w2;
    w2 = w2prev;
    w2prev = tmpp;
  }
  float checksum = 0.0;
  HI_check_read(w2, CPU);
  for (int i = 0; i < nh * no; i = i + 1) {
    checksum = checksum + w2[i];
  }
  return 0;
}

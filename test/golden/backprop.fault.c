int main() {
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
  for (int i = 0; i < ni; i = i + 1) {
    input[i] = 0.10000000000000001 * float(i % 10);
  }
  for (int j = 0; j < no; j = j + 1) {
    target[j] = 0.5 + 0.050000000000000003 * float(j);
  }
  for (int i = 0; i < ni * nh; i = i + 1) {
    w1[i] = 0.01 * float(i % 13);
  }
  for (int i = 0; i < nh * no; i = i + 1) {
    w2a[i] = 0.02 * float(i % 7);
    w2b[i] = 0.02 * float(i % 7);
  }
  w2 = w2a;
  w2prev = w2b;
  for (int e = 0; e < epochs; e = e + 1) {
    #pragma acc kernels loop gang worker
    for (int j = 0; j < nh; j = j + 1) {
      sumv = 0.0;
      for (int i = 0; i < ni; i = i + 1) {
        sumv = sumv + input[i] * w1[i * nh + j];
      }
      hidden[j] = 1.0 / (1.0 + exp(0.0 - sumv));
    }
    #pragma acc kernels loop gang worker
    for (int j = 0; j < no; j = j + 1) {
      sumo = 0.0;
      for (int i = 0; i < nh; i = i + 1) {
        sumo = sumo + hidden[i] * w2[i * no + j];
      }
      output[j] = 1.0 / (1.0 + exp(0.0 - sumo));
    }
    err = 0.0;
    #pragma acc kernels loop gang worker
    for (int j = 0; j < no; j = j + 1) {
      delta[j] = (target[j] - output[j]) * output[j] * (1.0 - output[j]);
      err = err + fabs(target[j] - output[j]);
    }
    #pragma acc kernels loop gang worker
    for (int i = 0; i < nh; i = i + 1) {
      for (int j = 0; j < no; j = j + 1) {
        w2prev[i * no + j] = w2[i * no + j] + lr * delta[j] * hidden[i];
      }
    }
    tmpp = w2;
    w2 = w2prev;
    w2prev = tmpp;
  }
  float checksum = 0.0;
  for (int i = 0; i < nh * no; i = i + 1) {
    checksum = checksum + w2[i];
  }
  return 0;
}


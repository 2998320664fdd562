int main() {
  int n = 48;
  int w = n + 1;
  float sm[w][w];
  int seq1[n];
  int seq2[n];
  float t;
  for (int i = 0; i < n; i = i + 1) {
    seq1[i] = (i * 7 + 3) % 4;
    seq2[i] = (i * 11 + 1) % 4;
  }
  for (int i = 0; i < w; i = i + 1) {
    for (int j = 0; j < w; j = j + 1) {
      sm[i][j] = 0.0;
    }
  }
  for (int i = 0; i < w; i = i + 1) {
    sm[i][0] = 0.0 - float(i);
    sm[0][i] = 0.0 - float(i);
  }
  for (int d = 2; d <= n; d = d + 1) {
    #pragma acc kernels loop gang worker
    for (int i = 1; i < d; i = i + 1) {
      t = sm[i - 1][d - i - 1] + (seq1[i - 1] == seq2[d - i - 1] ? 2.0 : 0.0 - 1.0);
      t = max(t, sm[i - 1][d - i] - 1.0);
      t = max(t, sm[i][d - i - 1] - 1.0);
      sm[i][d - i] = t;
    }
  }
  for (int d = n + 1; d <= 2 * n; d = d + 1) {
    #pragma acc kernels loop gang worker
    for (int i = d - n; i <= n; i = i + 1) {
      sm[i][d - i] = max(max(sm[i - 1][d - i - 1] + (seq1[i - 1] == seq2[d - i - 1] ? 2.0 : 0.0 - 1.0), sm[i - 1][d - i] - 1.0), sm[i][d - i - 1] - 1.0);
    }
  }
  float score = sm[n][n];
  return 0;
}


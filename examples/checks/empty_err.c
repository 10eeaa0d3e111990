/* Declarations only: a kernel with no statements is rejected. */
int A[8];
int x;

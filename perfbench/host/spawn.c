/* spawn OUT SECONDS PROG ARG...

   Runs PROG with its stdout and stderr sent to OUT, kills it after
   SECONDS, and prints one line: the exit code (128 + the signal if it
   was killed), user and system CPU seconds, peak RSS in KB and wall
   seconds.  perfbench/run.py starts every child through it so that the
   peak RSS is the child's own: Linux starts a child's ru_maxrss from the
   resident size of the process that forked it, and this one is tiny. */
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static pid_t child;

static void on_alarm(int sig) {
  (void)sig;
  kill(child, SIGKILL);
}

static double seconds(struct timeval t) { return t.tv_sec + t.tv_usec / 1e6; }

int main(int argc, char **argv) {
  if (argc < 4) {
    fputs("usage: spawn OUT SECONDS PROG ARG...\n", stderr);
    return 2;
  }
  int fd = open(argv[1], O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    perror(argv[1]);
    return 2;
  }
  struct timespec t0, t1;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  child = fork();
  if (child < 0) {
    perror("fork");
    return 2;
  }
  if (child == 0) {
    dup2(fd, 1);
    dup2(fd, 2);
    execv(argv[3], argv + 3);
    _exit(127);
  }
  close(fd);
  signal(SIGALRM, on_alarm);
  alarm(atoi(argv[2]));
  int status;
  struct rusage ru;
  while (wait4(child, &status, 0, &ru) < 0)
    if (errno != EINTR) {
      perror("wait4");
      return 2;
    }
  clock_gettime(CLOCK_MONOTONIC, &t1);
  int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  printf("%d %.6f %.6f %ld %.6f\n", code, seconds(ru.ru_utime), seconds(ru.ru_stime),
         ru.ru_maxrss, (t1.tv_sec - t0.tv_sec) + (t1.tv_nsec - t0.tv_nsec) / 1e9);
  return 0;
}

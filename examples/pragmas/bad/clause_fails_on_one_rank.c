/* Seeded counterexample for repro-lint's CI004 on one rank only (kept
 * out of the CI glob on purpose): a ring whose receiver expression
 * takes a remainder modulo rank-2, which is zero on rank 2 alone (the
 * term is multiplied by 0, so every other rank names its right-hand
 * neighbour; `%` keeps it an integer, where `/` would make every
 * rank's receiver a float and CI004 on rank 0). repro-lint reports
 * one CI004 naming the receiver clause on rank 2, and no deadlock: the
 * messages rank 2 never posts are that finding, not a CI002/CI003. The
 * runtime raises ClauseError at the directive on rank 2. Any world of
 * three or more ranks shows it. */
double a[8];
double b[8];
int rank, nprocs;

#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs+0*(1%(rank-2))) sbuf(a) rbuf(b)
{
}
consume(b);

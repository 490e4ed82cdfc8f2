/* Seeded counterexample for repro-lint's race pass after a failing
 * directive (kept out of the CI glob on purpose): races/send_reuse.c,
 * whose CI041 at line 26 recycles out[3] before the chain's sync, with
 * the third ring's receiver taking a remainder modulo rank-2, which is
 * zero on rank 2 alone. The runtime reaches the race and then raises
 * ClauseError on rank 2 at line 31. repro-lint reports the CI004 at
 * line 31 and still the CI041 at line 26: the halves the third ring
 * misses are that CI004, not a deadlock that switches the race pass
 * off. Any world of three or more ranks shows it. */
double out[16];
double in[16];
double x2[16];
double y2[16];
double x3[16];
double y3[16];
int rank, nprocs;

#pragma comm_parameters place_sync(END_ADJ_PARAM_REGIONS)
{
    #pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(out) rbuf(in)
}
#pragma comm_parameters place_sync(END_ADJ_PARAM_REGIONS)
{
    #pragma comm_p2p sender((rank+1)%nprocs) receiver((rank-1+nprocs)%nprocs) sbuf(x2) rbuf(y2)
    {
        out[3] = 0.0;
    }
}
#pragma comm_parameters place_sync(END_PARAM_REGION)
{
    #pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs+0*(1%(rank-2))) sbuf(x3) rbuf(y3)
}
consume(in);
consume(y2);
consume(y3);

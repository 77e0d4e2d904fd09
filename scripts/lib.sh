# lib.sh — helpers shared by the smoke scripts. Source it, do not run it:
#
#   . "$(dirname "$0")/lib.sh"

# start_gsmd TAG [gsmd flags...] boots "$TMP/gsmd" on a free loopback port
# with the given flags and waits until it writes its bound address to
# "$TMP/addr" (it listens before serving). It sets GSMD_PID and ADDR, and
# exits the calling script, with TAG as the message prefix, if gsmd dies
# before binding or has not bound within 10 seconds. The caller owns TMP
# and the trap that stops GSMD_PID.
start_gsmd() {
    tag="$1"
    shift
    rm -f "$TMP/addr"
    "$TMP/gsmd" -addr 127.0.0.1:0 -addr-file "$TMP/addr" "$@" &
    GSMD_PID=$!
    i=0
    while [ ! -s "$TMP/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "$tag: gsmd did not write $TMP/addr in time" >&2
            exit 1
        fi
        if ! kill -0 "$GSMD_PID" 2>/dev/null; then
            echo "$tag: gsmd exited before binding" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR="$(cat "$TMP/addr")"
}

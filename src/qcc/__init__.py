"""Leading-order signalling between switched Unruh-DeWitt detectors.

Two localized two-level detectors couple to a massless scalar vacuum in
1+1, 2+1, or 3+1 dimensional flat spacetime.  The library evaluates the
lowest-order signal Bob can receive from Alice, the energies that carry
it (detector, interaction, and field terms), and the capacity of the
binary channel the signal induces.  A CLI (``qcc``) wraps single runs,
parameter sweeps, capacity calculations, and a self-check suite.

Importing the package loads nothing else; import each name from its
module (``qcc.scenario``, ``qcc.signalling``, ``qcc.channel``, ...).
"""

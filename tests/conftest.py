import sys

import numpy as np

from qasian.grid import build_operators


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the run, capture or not."""
    for name, mod in sys.modules.items():
        if name.rpartition(".")[2] == "test_acceptance" and mod is not None:
            verdicts = getattr(mod, "VERDICTS", None)
            if verdicts:
                terminalreporter.section("acceptance criteria")
                for line in verdicts:
                    terminalreporter.write_line(line)
            break


def assemble_system(spec, params, kink_shift=0.0):
    """Assemble the dense linear system and its A/B split.

    Returns (M, rhs_hat, A, B) with Ct = delta_tau1*(C_tau1 + C_close)
    the closed time operator and
        M = Ct (x) I  +  I (x) (C_eta1 + C_eta2)
        A = I (x) A2
        B = Ct (x) A1^-1  +  I (x) A1^-1 C_eta2
    so that A + B = (I (x) A1^-1) M.  The program never forms these;
    this is the dense reference the tests hold inversion.SpaceTimeSystem
    against.
    """
    ops = build_operators(spec, params, kink_shift=kink_shift)
    It = np.eye(spec.N_tau1)
    Ix = np.eye(spec.N_eta)
    Ct = spec.delta_tau1 * (ops.C_tau1 + ops.C_close)
    M = (np.kron(Ct, Ix)
         + np.kron(It, ops.C_eta1 + ops.C_eta2))
    a1_inv = 1.0 / np.diag(ops.A1)
    A = np.kron(It, ops.A2)
    B = (np.kron(Ct, np.diag(a1_inv))
         + np.kron(It, a1_inv[:, None] * ops.C_eta2))
    return M, ops.rhs_hat, A, B
